// Command e2ebench is cs31's end-to-end benchmark. It drives labd over
// loopback TCP under open-loop load and runs Game of Life at the host's
// core count, checks every output, and prints one JSON result line. See
// README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed used when --seed is not given.
const defaultSeed = 1

// minSeconds is the shortest measured time whose phases each hold at
// least one complete measurement window.
const minSeconds = 4

// runDeadline bounds a whole run: past it the process reports the hang
// and exits non-zero rather than waiting on a stuck operation.
const runDeadline = 170 * time.Second

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
	log      io.Writer
}

// workloadFunc runs one workload and returns its result; an error means
// the run could not be carried out at all (no result is printed).
type workloadFunc func(cfg runConfig) (*result, error)

var workloads = map[string]workloadFunc{
	"serve-hot":     runServe,
	"serve-cold":    runServe,
	"life-parallel": runLife,
	"life-dist":     runLife,
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 28, "measured time per run, in seconds (at least 4)")
	trace := fs.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace written by the traced pass (default .bench_build/trace-<workload>.json)")
	out := fs.String("out", "", "append the run's record (host fingerprint, seed, result) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "all" {
		var child []string
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				child = append(child, "--"+f.Name, f.Value.String())
			}
		})
		return runAll(child)
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < minSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s), --seconds >= %d and --trace 0|1\n", workloadNames(), minSeconds)
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceOut: *traceOut,
		log:      os.Stderr,
	}
	if cfg.traceOut == "" {
		cfg.traceOut = ".bench_build/trace-" + cfg.workload + ".json"
	}

	// Fail fast, never hang: a run that outlives its deadline dumps its
	// goroutines and exits without a result.
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "e2ebench: run exceeded %v; goroutines:\n", runDeadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		os.Exit(3)
	})
	defer watchdog.Stop()

	host := hostFingerprint(".")
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostJSON)
	fmt.Fprintf(os.Stderr, "e2ebench: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, *seconds, *trace)

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if len(res.Ungated) > 0 {
		ungated, _ := json.Marshal(res.Ungated)
		fmt.Fprintf(os.Stderr, "e2ebench: ungated %s\n", ungated)
	}
	if *out != "" {
		if err := appendRecord(*out, record{Host: host, Workload: cfg.workload, Seed: cfg.seed,
			Seconds: *seconds, Trace: cfg.trace, Result: *res, Ungated: res.Ungated}); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: encode result: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "e2ebench: outputs did not match their references")
		return 1
	}
	return 0
}

// runAll runs every workload, each in its own process so that peak memory
// and GC state never carry over, with the given flags. Their output passes
// through; the exit code is the worst any of them returned.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	names := strings.Split(workloadNames(), ", ")
	worst := 0
	for _, name := range names {
		fmt.Printf("workload %s\n", name)
		cmd := exec.Command(exe, append([]string{"--workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		code := 0
		if err := cmd.Run(); err != nil {
			code = 2
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				code = exit.ExitCode()
			}
		}
		if code > worst {
			worst = code
		}
	}
	return worst
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open record file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("write record: %w", err)
	}
	return f.Close()
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <base.jsonl> <candidate.jsonl>")
		return 2
	}
	base, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	cand, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if compareRecords(os.Stdout, base, cand) > 0 {
		return 1
	}
	return 0
}
