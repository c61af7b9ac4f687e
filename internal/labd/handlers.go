package labd

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"cs31/internal/asm"
	"cs31/internal/cache"
	"cs31/internal/homework"
	"cs31/internal/life"
	"cs31/internal/memhier"
	"cs31/internal/minic"
	"cs31/internal/survey"
	"cs31/internal/sweep"
	"cs31/internal/vm"
)

// Request-size guardrails: the daemon serves an open classroom, so every
// dimension a request controls is bounded before work is queued.
const (
	maxSourceBytes = 1 << 20 // asm / mini-C source
	maxTraceLen    = 1 << 20 // cache / VM trace entries
	maxGridCells   = 1 << 20 // life rows*cols
	maxLifeIters   = 10_000
	maxLifeThreads = 64
	maxProblems    = 100
	maxStudents    = 10_000
)

// errBadRequest marks simulator/validation failures that map to HTTP 400.
type errBadRequest struct{ err error }

func (e errBadRequest) Error() string { return e.err.Error() }
func (e errBadRequest) Unwrap() error { return e.err }

func badReqf(format string, args ...any) error {
	return errBadRequest{fmt.Errorf(format, args...)}
}

// runMachine executes m within maxSteps instructions, polling ctx between
// chunks so a deadline or client disconnect stops a runaway program.
func runMachine(ctx context.Context, m *asm.Machine, maxSteps int64) error {
	const chunk = 4096
	for done := int64(0); done < maxSteps; done++ {
		if done%chunk == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if err := m.Step(); err != nil {
			if errors.Is(err, asm.ErrExited) {
				return nil
			}
			return err
		}
		if m.Exited {
			return nil
		}
	}
	return fmt.Errorf("exceeded step budget of %d", maxSteps)
}

// --- POST /v1/asm/run -------------------------------------------------

// AsmRunRequest assembles and executes an IA-32-subset program.
type AsmRunRequest struct {
	Source   string `json:"source"`
	Stdin    string `json:"stdin,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"` // 0 = server default
}

// AsmRunResponse reports the machine's observable outcome.
type AsmRunResponse struct {
	ExitStatus int32  `json:"exit_status"`
	Stdout     string `json:"stdout"`
	Steps      int64  `json:"steps"`
}

func (s *Server) asmRun(ctx context.Context, req AsmRunRequest) (AsmRunResponse, error) {
	var resp AsmRunResponse
	if req.Source == "" {
		return resp, badReqf("source is required")
	}
	if len(req.Source) > maxSourceBytes {
		return resp, badReqf("source exceeds %d bytes", maxSourceBytes)
	}
	steps := s.cfg.MaxSteps
	if req.MaxSteps > 0 && req.MaxSteps < steps {
		steps = req.MaxSteps
	}
	prog, err := asm.Assemble(req.Source)
	if err != nil {
		return resp, errBadRequest{err}
	}
	m, err := asm.NewMachine(prog)
	if err != nil {
		return resp, errBadRequest{err}
	}
	var out strings.Builder
	m.Stdin = strings.NewReader(req.Stdin)
	m.Stdout = &out
	if err := runMachine(ctx, m, steps); err != nil {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		return resp, errBadRequest{err}
	}
	resp.ExitStatus = m.ExitStatus
	resp.Stdout = out.String()
	resp.Steps = m.Steps
	return resp, nil
}

// --- POST /v1/minic/compile -------------------------------------------

// MinicCompileRequest compiles mini-C source; with Run set it also
// executes the program.
type MinicCompileRequest struct {
	Source   string `json:"source"`
	Run      bool   `json:"run,omitempty"`
	Stdin    string `json:"stdin,omitempty"`
	MaxSteps int64  `json:"max_steps,omitempty"`
}

// MinicCompileResponse carries the generated assembly and, when requested,
// the execution result.
type MinicCompileResponse struct {
	Assembly   string `json:"assembly"`
	ExitStatus *int32 `json:"exit_status,omitempty"`
	Stdout     string `json:"stdout,omitempty"`
	Steps      int64  `json:"steps,omitempty"`
}

func (s *Server) minicCompile(ctx context.Context, req MinicCompileRequest) (MinicCompileResponse, error) {
	var resp MinicCompileResponse
	if req.Source == "" {
		return resp, badReqf("source is required")
	}
	if len(req.Source) > maxSourceBytes {
		return resp, badReqf("source exceeds %d bytes", maxSourceBytes)
	}
	asmSrc, err := minic.Compile(req.Source)
	if err != nil {
		return resp, errBadRequest{err}
	}
	resp.Assembly = asmSrc
	if req.Run {
		run, err := s.asmRun(ctx, AsmRunRequest{
			Source: asmSrc, Stdin: req.Stdin, MaxSteps: req.MaxSteps,
		})
		if err != nil {
			return resp, err
		}
		resp.ExitStatus = &run.ExitStatus
		resp.Stdout = run.Stdout
		resp.Steps = run.Steps
	}
	return resp, nil
}

// --- POST /v1/cache/sim -----------------------------------------------

// TraceAccess is one memory access of a cache trace.
type TraceAccess struct {
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write,omitempty"`
}

// CacheSimRequest replays a trace (explicit or a built-in matrix
// workload) through a configured cache.
type CacheSimRequest struct {
	SizeBytes int    `json:"size_bytes,omitempty"` // default 1024
	BlockSize int    `json:"block_size,omitempty"` // default 16
	Assoc     int    `json:"assoc,omitempty"`      // default 1
	Write     string `json:"write,omitempty"`      // back|through
	Alloc     string `json:"alloc,omitempty"`      // allocate|noallocate
	Repl      string `json:"repl,omitempty"`       // lru|fifo

	Trace    []TraceAccess `json:"trace,omitempty"`
	Workload string        `json:"workload,omitempty"` // rowmajor|colmajor
	Rows     int           `json:"rows,omitempty"`
	Cols     int           `json:"cols,omitempty"`

	TableN int `json:"table_n,omitempty"` // include the first-N access table
}

// CacheSimResponse reports organization and replay statistics.
type CacheSimResponse struct {
	NumSets    int         `json:"num_sets"`
	TagBits    int         `json:"tag_bits"`
	IndexBits  int         `json:"index_bits"`
	OffsetBits int         `json:"offset_bits"`
	Stats      cache.Stats `json:"stats"`
	HitRate    float64     `json:"hit_rate"`
	Table      string      `json:"table,omitempty"`
}

func (s *Server) cacheSim(_ context.Context, req CacheSimRequest) (CacheSimResponse, error) {
	var resp CacheSimResponse
	cfg := cache.Config{SizeBytes: req.SizeBytes, BlockSize: req.BlockSize, Assoc: req.Assoc}
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 1024
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 16
	}
	if cfg.Assoc == 0 {
		cfg.Assoc = 1
	}
	switch req.Write {
	case "", "back":
		cfg.Write = cache.WriteBack
	case "through":
		cfg.Write = cache.WriteThrough
	default:
		return resp, badReqf("unknown write policy %q", req.Write)
	}
	switch req.Alloc {
	case "", "allocate":
		cfg.Alloc = cache.WriteAllocate
	case "noallocate":
		cfg.Alloc = cache.NoWriteAllocate
	default:
		return resp, badReqf("unknown alloc policy %q", req.Alloc)
	}
	switch req.Repl {
	case "", "lru":
		cfg.Repl = cache.LRU
	case "fifo":
		cfg.Repl = cache.FIFO
	default:
		return resp, badReqf("unknown replacement policy %q", req.Repl)
	}

	trace, err := buildTrace(req)
	if err != nil {
		return resp, err
	}

	c, err := cache.New(cfg)
	if err != nil {
		return resp, errBadRequest{err}
	}
	if req.TableN > 0 {
		table, err := cache.TraceTable(cfg, trace, req.TableN)
		if err != nil {
			return resp, errBadRequest{err}
		}
		resp.Table = table
	}
	resp.Stats = c.RunTrace(trace)
	resp.HitRate = resp.Stats.HitRate()
	resp.NumSets = cfg.NumSets()
	resp.IndexBits = cfg.IndexBits()
	resp.OffsetBits = cfg.OffsetBits()
	resp.TagBits = 32 - resp.IndexBits - resp.OffsetBits
	return resp, nil
}

func buildTrace(req CacheSimRequest) ([]memhier.Access, error) {
	switch req.Workload {
	case "":
		if len(req.Trace) == 0 {
			return nil, badReqf("provide a trace or a workload")
		}
		if len(req.Trace) > maxTraceLen {
			return nil, badReqf("trace exceeds %d accesses", maxTraceLen)
		}
		trace := make([]memhier.Access, len(req.Trace))
		for i, a := range req.Trace {
			trace[i] = memhier.Access{Addr: a.Addr, Write: a.Write}
		}
		return trace, nil
	case "rowmajor", "colmajor":
		rows, cols := req.Rows, req.Cols
		if rows == 0 {
			rows = 64
		}
		if cols == 0 {
			cols = 64
		}
		if rows < 1 || cols < 1 || rows*cols > maxTraceLen {
			return nil, badReqf("matrix %dx%d out of range", rows, cols)
		}
		if req.Workload == "rowmajor" {
			return memhier.MatrixTraceRowMajor(0, rows, cols, 4), nil
		}
		return memhier.MatrixTraceColMajor(0, rows, cols, 4), nil
	default:
		return nil, badReqf("unknown workload %q", req.Workload)
	}
}

// --- POST /v1/vm/sim --------------------------------------------------

// VMAccess is one per-process virtual access of a VM trace.
type VMAccess struct {
	Pid   int    `json:"pid"`
	Addr  uint64 `json:"addr"`
	Write bool   `json:"write,omitempty"`
}

// VMSimRequest replays a multi-process trace through the VM simulator.
type VMSimRequest struct {
	PageSize  uint64     `json:"page_size,omitempty"`  // default 256
	NumFrames int        `json:"num_frames,omitempty"` // default 8
	TLBSize   int        `json:"tlb_size,omitempty"`   // default 4
	NumPages  uint64     `json:"num_pages,omitempty"`  // default 64
	Trace     []VMAccess `json:"trace"`
}

// VMSimResponse reports translation statistics and the cost model.
type VMSimResponse struct {
	Stats             vm.Stats `json:"stats"`
	FaultRate         float64  `json:"fault_rate"`
	TLBHitRate        float64  `json:"tlb_hit_rate"`
	ContextSwitches   int64    `json:"context_switches"`
	EffectiveAccessNs float64  `json:"effective_access_ns"` // RAM 100ns, fault 8ms
}

func (s *Server) vmSim(_ context.Context, req VMSimRequest) (VMSimResponse, error) {
	var resp VMSimResponse
	cfg := vm.Config{
		PageSize: req.PageSize, NumFrames: req.NumFrames,
		TLBSize: req.TLBSize, NumPages: req.NumPages,
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 256
	}
	if cfg.NumFrames == 0 {
		cfg.NumFrames = 8
	}
	if cfg.TLBSize == 0 {
		cfg.TLBSize = 4
	}
	if cfg.NumPages == 0 {
		cfg.NumPages = 64
	}
	if len(req.Trace) == 0 {
		return resp, badReqf("trace is required")
	}
	if len(req.Trace) > maxTraceLen {
		return resp, badReqf("trace exceeds %d accesses", maxTraceLen)
	}
	sys, err := vm.New(cfg)
	if err != nil {
		return resp, errBadRequest{err}
	}
	known := map[vm.Pid]bool{}
	for i, a := range req.Trace {
		pid := vm.Pid(a.Pid)
		if !known[pid] {
			if err := sys.AddProcess(pid); err != nil {
				return resp, badReqf("access %d: %v", i, err)
			}
			known[pid] = true
		}
		if sys.Current() != pid {
			if err := sys.Switch(pid); err != nil {
				return resp, badReqf("access %d: %v", i, err)
			}
		}
		if _, err := sys.Access(a.Addr, a.Write); err != nil {
			return resp, badReqf("access %d: %v", i, err)
		}
	}
	resp.Stats = sys.Stats()
	resp.FaultRate = resp.Stats.FaultRate()
	resp.TLBHitRate = resp.Stats.TLBHitRate()
	resp.ContextSwitches = int64(sys.ContextSwitches)
	resp.EffectiveAccessNs = sys.EffectiveAccessTime(100, 8_000_000)
	return resp, nil
}

// --- POST /v1/life/run ------------------------------------------------

// LifeRunRequest advances a random Game of Life grid, serially or on a
// worker pool, optionally measuring the Lab 10 speedup table. Engine
// "dist" runs the message-passing DistRunner (Threads become ranks), so
// the speedup table measures rank scaling with halo-exchange costs in.
type LifeRunRequest struct {
	Rows      int     `json:"rows,omitempty"`      // default 32
	Cols      int     `json:"cols,omitempty"`      // default 32
	Iters     int     `json:"iters,omitempty"`     // default 20
	Seed      int64   `json:"seed,omitempty"`      // default 31
	Density   float64 `json:"density,omitempty"`   // default 0.3
	Threads   int     `json:"threads,omitempty"`   // <=1 runs the serial engine
	Partition string  `json:"partition,omitempty"` // rows|cols
	Engine    string  `json:"engine,omitempty"`    // parallel (default) | dist
	Packed    bool    `json:"packed,omitempty"`    // accepted no-op: every board is bit-packed
	Speedup   bool    `json:"speedup,omitempty"`   // measure 1..Threads scaling
}

// LifeScalingPoint is one row of the speedup report.
type LifeScalingPoint struct {
	Threads    int     `json:"threads"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
}

// LifeRunResponse reports the final generation and, when measured, the
// scaling table.
type LifeRunResponse struct {
	Rows        int                `json:"rows"`
	Cols        int                `json:"cols"`
	Generations int                `json:"generations"`
	Population  int                `json:"population"`
	LiveUpdates int64              `json:"live_updates,omitempty"`
	Scaling     []LifeScalingPoint `json:"scaling,omitempty"`
}

func (s *Server) lifeRun(ctx context.Context, req LifeRunRequest) (LifeRunResponse, error) {
	var resp LifeRunResponse
	rows, cols, iters := req.Rows, req.Cols, req.Iters
	if rows == 0 {
		rows = 32
	}
	if cols == 0 {
		cols = 32
	}
	if iters == 0 {
		iters = 20
	}
	seed := req.Seed
	if seed == 0 {
		seed = 31
	}
	density := req.Density
	if density == 0 {
		density = 0.3
	}
	if rows < 1 || cols < 1 || rows*cols > maxGridCells {
		return resp, badReqf("grid %dx%d out of range (max %d cells)", rows, cols, maxGridCells)
	}
	if iters < 1 || iters > maxLifeIters {
		return resp, badReqf("iters %d out of range [1,%d]", iters, maxLifeIters)
	}
	if req.Threads > maxLifeThreads {
		return resp, badReqf("threads %d exceeds max %d", req.Threads, maxLifeThreads)
	}
	if density < 0 || density > 1 {
		return resp, badReqf("density %v outside [0,1]", density)
	}
	part := life.ByRows
	switch req.Partition {
	case "", "rows":
	case "cols":
		part = life.ByCols
	default:
		return resp, badReqf("unknown partition %q", req.Partition)
	}
	var dist bool
	switch req.Engine {
	case "", "parallel":
	case "dist":
		if part != life.ByRows {
			return resp, badReqf("dist engine shards by rows only")
		}
		dist = true
	default:
		return resp, badReqf("unknown engine %q", req.Engine)
	}

	g, err := life.NewGrid(rows, cols, life.Torus)
	if err != nil {
		return resp, errBadRequest{err}
	}
	g.Randomize(seed, density)

	if req.Speedup && req.Threads > 1 {
		counts := []int{1}
		for t := 2; t < req.Threads; t *= 2 {
			counts = append(counts, t)
		}
		counts = append(counts, req.Threads)
		template := g.Clone()
		// The timed series runs through the sweep engine, which sequences
		// the points (overlapping measurements would contend) and polls ctx
		// between them, so a canceled request stops mid-series.
		points, err := sweep.MeasureScaling(ctx, counts, func(ctx context.Context, threads int) error {
			gg := template.Clone()
			_, err := runLifeCtx(ctx, gg, threads, part, dist, iters)
			return err
		})
		if err != nil {
			if ctx.Err() != nil {
				return resp, ctx.Err()
			}
			return resp, errBadRequest{err}
		}
		for _, p := range points {
			resp.Scaling = append(resp.Scaling, LifeScalingPoint{
				Threads:    p.Threads,
				ElapsedMs:  float64(p.Elapsed) / float64(time.Millisecond),
				Speedup:    p.Speedup,
				Efficiency: p.Efficiency,
			})
		}
	}

	live, err := runLifeCtx(ctx, g, req.Threads, part, dist, iters)
	if err != nil {
		if ctx.Err() != nil {
			return resp, ctx.Err()
		}
		return resp, errBadRequest{err}
	}
	resp.LiveUpdates = live
	resp.Rows, resp.Cols = rows, cols
	resp.Generations = g.Generation
	resp.Population = g.Population()
	return resp, nil
}

// runLifeCtx advances the grid by iters generations under the request
// context. The parallel and dist engines take ctx directly — a timed-out
// or canceled request aborts their worlds mid-run and joins every rank and
// worker goroutine before returning, so the daemon sheds the whole
// goroutine tree within roughly one generation of the deadline. The serial
// engine has no internal cancellation points, so it still runs in chunks
// with a ctx poll between them. Returns accumulated live updates
// (parallel/dist runs only; the serial engine doesn't track them).
func runLifeCtx(ctx context.Context, g *life.Grid, threads int, part life.Partition, dist bool, iters int) (int64, error) {
	switch {
	case threads <= 1:
		const chunk = 8
		for done := 0; done < iters; {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			n := chunk
			if iters-done < n {
				n = iters - done
			}
			g.Run(n)
			done += n
		}
		return 0, nil
	case dist:
		dr := &life.DistRunner{G: g, Ranks: threads}
		st, err := dr.RunCtx(ctx, iters)
		if err != nil {
			return 0, err
		}
		return st.LiveUpdates, nil
	default:
		pr := &life.ParallelRunner{G: g, Threads: threads, Partition: part}
		st, err := pr.RunCtx(ctx, iters)
		if err != nil {
			return 0, err
		}
		return st.LiveUpdates, nil
	}
}

// --- GET /v1/homework -------------------------------------------------

// HomeworkProblem is one generated problem with its computed answer key.
type HomeworkProblem struct {
	Topic    string `json:"topic"`
	Prompt   string `json:"prompt"`
	Solution string `json:"solution,omitempty"`
}

// HomeworkResponse lists topics (no topic given) or generated problems.
type HomeworkResponse struct {
	Topics   []string          `json:"topics,omitempty"`
	Problems []HomeworkProblem `json:"problems,omitempty"`
}

func (s *Server) homeworkGen(_ context.Context, topic string, seed int64, n int, answers bool) (HomeworkResponse, error) {
	var resp HomeworkResponse
	if topic == "" {
		resp.Topics = homework.Topics()
		return resp, nil
	}
	if n < 1 || n > maxProblems {
		return resp, badReqf("n %d out of range [1,%d]", n, maxProblems)
	}
	probs, err := homework.Generate(topic, seed, n)
	if err != nil {
		return resp, errBadRequest{err}
	}
	for _, p := range probs {
		hp := HomeworkProblem{Topic: p.Topic, Prompt: p.Prompt}
		if answers {
			hp.Solution = p.Solution
		}
		resp.Problems = append(resp.Problems, hp)
	}
	return resp, nil
}

// --- GET /v1/survey/figure1 -------------------------------------------

// SurveyFigureResponse reproduces Figure 1 for a synthetic cohort.
type SurveyFigureResponse struct {
	Students      int                `json:"students"`
	Seed          int64              `json:"seed"`
	Stats         []survey.TopicStat `json:"stats"`
	Figure        string             `json:"figure"`
	ShapeProblems []string           `json:"shape_problems,omitempty"`
}

func (s *Server) surveyFigure1(_ context.Context, seed int64, students int) (SurveyFigureResponse, error) {
	var resp SurveyFigureResponse
	if students < 1 || students > maxStudents {
		return resp, badReqf("students %d out of range [1,%d]", students, maxStudents)
	}
	cohort := survey.SyntheticCohort(seed, students)
	stats, err := cohort.Aggregate()
	if err != nil {
		return resp, errBadRequest{err}
	}
	resp.Students = students
	resp.Seed = seed
	resp.Stats = stats
	resp.Figure = survey.RenderFigure1(stats)
	resp.ShapeProblems = survey.CheckPaperShape(cohort.Topics, stats)
	return resp, nil
}
