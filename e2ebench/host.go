package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the host and the code a result was taken on.
// Results whose host fields differ are not comparable; the code fields
// (commit, source) are what a comparison compares.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"` // git HEAD when the tree is a git checkout
	Source     string `json:"source"` // SHA-256 over the module's Go sources
}

// hostFingerprint reads the fingerprint of this process, with root the
// repository the program was built from.
func hostFingerprint(root string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitHead(root),
		Source:     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead resolves .git/HEAD without running git; "" outside a checkout.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// sourceDigest hashes every .go file and go.mod under root (paths and
// contents, in path order), skipping hidden directories such as the
// build directory. It identifies the code even where there is no git
// metadata.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// mismatch lists the host fields on which a and b differ, as
// "field: a vs b"; empty when the two were taken on comparable hosts.
func (a fingerprint) mismatch(b fingerprint) []string {
	var out []string
	check := func(field string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s: %v vs %v", field, x, y))
		}
	}
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("num_cpu", a.NumCPU, b.NumCPU)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("go_version", a.GoVersion, b.GoVersion)
	check("goos", a.GOOS, b.GOOS)
	check("goarch", a.GOARCH, b.GOARCH)
	return out
}

// record is one run as stored by --out: the fingerprint, the workload and
// seed, and the printed result.
type record struct {
	Host     fingerprint       `json:"host"`
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Ungated  map[string]metric `json:"ungated,omitempty"`
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// compareRecords prints, per workload and metric, the median of each set
// of runs and their ratio. A workload whose runs were taken on hosts with
// different fingerprints is reported as not comparable, with the reason,
// and no ratio is printed for it. It returns the number of workloads
// found not comparable.
func compareRecords(w io.Writer, base, cand []record) int {
	group := func(recs []record) map[string][]record {
		m := make(map[string][]record)
		for _, r := range recs {
			key := r.Workload
			if r.Trace {
				key += " (traced)"
			}
			m[key] = append(m[key], r)
		}
		return m
	}
	bg, cg := group(base), group(cand)
	var names []string
	for name := range bg {
		if _, ok := cg[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		b, c := bg[name], cg[name]
		var why []string
		for _, r := range append(b[1:], c...) {
			why = append(why, b[0].Host.mismatch(r.Host)...)
		}
		if len(why) > 0 {
			bad++
			fmt.Fprintf(w, "%s: NOT COMPARABLE, different hosts: %s\n", name, strings.Join(dedup(why), "; "))
			continue
		}
		fmt.Fprintf(w, "%s: %d base runs (source %s) vs %d candidate runs (source %s)\n",
			name, len(b), b[0].Host.Source, len(c), c[0].Host.Source)
		for _, ungated := range []bool{false, true} {
			var metrics []string
			for m := range b[0].figures(ungated) {
				metrics = append(metrics, m)
			}
			sort.Strings(metrics)
			for _, m := range metrics {
				bm, cm := medianMetric(b, m, ungated), medianMetric(c, m, ungated)
				label := m
				if ungated {
					label += " (ungated)"
				}
				fmt.Fprintf(w, "  %-40s %14.6g -> %14.6g  (x%.4f)\n", label, bm, cm, ratio(cm, bm))
			}
		}
	}
	return bad
}

// figures is the record's result metrics, or its ungated figures.
func (r record) figures(ungated bool) map[string]metric {
	if ungated {
		return r.Ungated
	}
	return r.Result.Metrics
}

func medianMetric(recs []record, name string, ungated bool) float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.figures(ungated)[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return median(xs)
}

func dedup(xs []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
