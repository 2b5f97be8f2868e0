// Command bench is the metrics-instrumented benchmark harness. It runs
// the full Table-1 suite across the three synthesis methods (plus the
// formula-size and scaling sweeps), collects the per-run metrics
// counters, and emits a versioned, schema-stable JSON record
// (internal/benchrec) that later runs can be diffed against and that
// regenerates the measured sections of EXPERIMENTS.md.
//
// Usage:
//
//	bench -out BENCH_2.json             # run everything, write the record
//	bench -quick -out q.json            # small rows only, no sweeps
//	bench -against BENCH_0.json         # run, then diff against a baseline
//	bench -against baselines/           # ... against the highest-numbered
//	                                    #     BENCH_*.json in the directory
//	bench -against old.json new.json    # diff two existing records
//	bench -render BENCH_0.json          # regenerate EXPERIMENTS.md sections
//	bench -render BENCH_0.json -check   # verify the doc is in sync
//
// The comparison exits non-zero on behaviour drift — areas, state
// counts, signals, aborts, determinism digests — and prints soft
// warnings for CPU-time regressions beyond 25% and counter drift.
// Rows present in only one record are skipped, so a -quick run
// compares cleanly against a committed full baseline.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/benchrec"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/par"
	"asyncsyn/internal/stg"
)

func main() {
	out := flag.String("out", "", "write the record as JSON to this path (default: stdout when running)")
	quick := flag.Bool("quick", false, "run only the small rows (paper initial states ≤ 100) and skip the clause/scaling sweeps")
	against := flag.String("against", "", "baseline record to compare with (a directory selects its highest-numbered BENCH_*.json); fresh record is an optional positional arg, else the suite runs")
	render := flag.String("render", "", "regenerate the generated sections of -doc from this record instead of running")
	doc := flag.String("doc", "EXPERIMENTS.md", "document whose generated sections -render rewrites")
	check := flag.Bool("check", false, "with -render: verify the doc is already in sync instead of rewriting it")
	workers := flag.Int("workers", 0, "worker pool over benchmark rows (0 = GOMAXPROCS; results are identical for any value)")
	maxBT := flag.Int64("maxbacktracks", 300000, "SAT backtrack budget per formula")
	cacheDir := flag.String("cachedir", "", "back every run's module solve cache with this directory (persists solves across runs and processes)")
	requireHits := flag.Bool("requirecachehits", false, "with -against: fail unless the fresh record shows at least one solve-cache hit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the suite run to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the suite run) to this path")
	scalingPoint := flag.Int("scalingpoint", 0, "run only the modular method at this scaling-sweep point (k) and print its stage breakdown; fails when the peak heap exceeds GOMEMLIMIT")
	flag.Parse()

	err := withProfiles(*cpuProfile, *memProfile, func() error {
		switch {
		case *scalingPoint > 0:
			return doScalingPoint(*scalingPoint, *maxBT)
		case *render != "":
			return doRender(*render, *doc, *check)
		case *against != "":
			return doCompare(*against, flag.Arg(0), *out, *quick, *workers, *maxBT, *cacheDir, *requireHits)
		default:
			return doRun(*out, *quick, *workers, *maxBT, *cacheDir)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// withProfiles brackets run with the optional CPU and heap profiles, so
// hot-path regressions spotted in CI records are diagnosable from the
// uploaded artifacts. The profiles are finished (and the heap snapshot
// taken) even when run fails.
func withProfiles(cpuPath, memPath string, run func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memPath != "" {
		defer func() {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
		}()
	}
	return run()
}

// scalingMaxStates is the state cap of the scaling sweep and of a
// single -scalingpoint run. The sweep exists to push past the library's
// conservative default cap; k=7 alone is ~156k initial states.
const scalingMaxStates = 1 << 20

// doScalingPoint runs the modular method alone at one point of the
// scaling sweep and prints the stage breakdown, the state-graph and SAT
// counters, the summed SAT search time and the peak heap. When a
// memory limit is set (GOMEMLIMIT) it then fails if the sampled peak
// heap exceeded it: the limit is only a soft target for the garbage
// collector, so without this check a run over the ceiling still exits 0.
func doScalingPoint(k int, maxBT int64) error {
	spec, err := stg.Handshakes("", k, 2)
	if err != nil {
		return err
	}
	g, err := asyncsyn.ParseSTGString(stg.Format(spec))
	if err != nil {
		return err
	}
	m := asyncsyn.NewMetrics()
	watch := metrics.WatchHeap(5 * time.Millisecond)
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{
		Method: asyncsyn.Modular, MaxBacktracks: maxBT, Workers: 4,
		MaxStates: scalingMaxStates, Metrics: m,
	})
	peak := watch.Stop()
	if err != nil {
		return fmt.Errorf("scaling k=%d: %w", k, err)
	}
	fmt.Printf("scaling k=%d: %d -> %d states, area %d, aborted %v, %.2fs, peak heap %.1f MiB\n",
		k, c.InitialStates, c.FinalStates, c.Area, c.Aborted, c.CPU.Seconds(), float64(peak)/(1<<20))
	for _, st := range c.Stages {
		fmt.Printf("  stage %-10s %8.2fs\n", st.Name, st.Duration.Seconds())
	}
	for _, k := range []string{"sg_states", "sg_states_streamed", "sg_peak_frontier",
		"sat_formulas", "sat_decisions", "sat_conflicts", "sat_propagations", "sat_learned", "sat_restarts"} {
		fmt.Printf("  counter %-20s %d\n", k, c.Counters[k])
	}
	var search time.Duration
	for _, f := range c.Formulas {
		search += f.Search
	}
	fmt.Printf("  %-16s %8.2fs\n", "sat search", search.Seconds())
	if limit := debug.SetMemoryLimit(-1); limit != math.MaxInt64 && int64(peak) > limit {
		return fmt.Errorf("scaling k=%d: peak heap %.1f MiB exceeds the memory limit %.1f MiB",
			k, float64(peak)/(1<<20), float64(limit)/(1<<20))
	}
	if c.Aborted {
		return fmt.Errorf("scaling k=%d: aborted (backtrack budget)", k)
	}
	return nil
}

func doRun(out string, quick bool, workers int, maxBT int64, cacheDir string) error {
	rec, err := runSuite(quick, workers, maxBT, cacheDir)
	if err != nil {
		return err
	}
	if out == "" {
		return rec.Encode(os.Stdout)
	}
	if err := rec.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (%d rows, %d clause rows, %d scaling points, %d cache rows)\n",
		out, len(rec.Rows), len(rec.Clauses), len(rec.Scaling), len(rec.Cache))
	return nil
}

func doCompare(baseline, freshPath, out string, quick bool, workers int, maxBT int64, cacheDir string, requireHits bool) error {
	resolved, err := benchrec.ResolveBaseline(baseline)
	if err != nil {
		return fmt.Errorf("-against: %w", err)
	}
	if resolved != baseline {
		fmt.Fprintf(os.Stderr, "bench: -against %s resolved to %s\n", baseline, resolved)
		baseline = resolved
	}
	old, err := benchrec.ReadFile(baseline)
	if err != nil {
		return err
	}
	var fresh *benchrec.Record
	if freshPath != "" {
		if fresh, err = benchrec.ReadFile(freshPath); err != nil {
			return err
		}
	} else {
		if fresh, err = runSuite(quick, workers, maxBT, cacheDir); err != nil {
			return err
		}
		if out != "" {
			if err := fresh.WriteFile(out); err != nil {
				return err
			}
		}
	}
	rep := benchrec.Compare(old, fresh, benchrec.CompareOptions{})
	for _, s := range rep.Soft {
		fmt.Printf("warn: %s\n", s)
	}
	for _, h := range rep.Hard {
		fmt.Printf("FAIL: %s\n", h)
	}
	fmt.Printf("bench: compared %d benchmark×method pairs against %s: %d hard, %d soft\n",
		rep.Compared, baseline, len(rep.Hard), len(rep.Soft))
	if rep.Failed() {
		return fmt.Errorf("behaviour drift against %s", baseline)
	}
	if requireHits {
		hits := cacheHits(fresh)
		if hits == 0 {
			return fmt.Errorf("-requirecachehits: fresh record shows no solve-cache hits")
		}
		fmt.Printf("bench: fresh record shows %d solve-cache hits\n", hits)
	}
	return nil
}

// cacheHits totals every modcache_hits counter in a record, across the
// per-method run counters and the cache sweep's warm runs.
func cacheHits(rec *benchrec.Record) int64 {
	var hits int64
	for _, row := range rec.Rows {
		for _, m := range []benchrec.MethodResult{row.Modular, row.Direct, row.Lavagno} {
			hits += m.Counters["modcache_hits"]
		}
	}
	for _, cr := range rec.Cache {
		hits += cr.Hits
	}
	return hits
}

func doRender(recPath, docPath string, check bool) error {
	rec, err := benchrec.ReadFile(recPath)
	if err != nil {
		return err
	}
	in, err := os.ReadFile(docPath)
	if err != nil {
		return err
	}
	rendered, err := benchrec.RenderDoc(in, rec)
	if err != nil {
		return err
	}
	if check {
		if !bytes.Equal(in, rendered) {
			return fmt.Errorf("%s is out of sync with %s; run: go run ./cmd/bench -render %s", docPath, recPath, recPath)
		}
		fmt.Fprintf(os.Stderr, "bench: %s is in sync with %s\n", docPath, recPath)
		return nil
	}
	if bytes.Equal(in, rendered) {
		fmt.Fprintf(os.Stderr, "bench: %s already up to date\n", docPath)
		return nil
	}
	if err := os.WriteFile(docPath, rendered, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: regenerated the generated sections of %s\n", docPath)
	return nil
}

// runSuite measures the record: every Table-1 row across the three
// methods, the cache-effectiveness sweep, then (full mode) the clause
// and scaling sweeps.
func runSuite(quick bool, workers int, maxBT int64, cacheDir string) (*benchrec.Record, error) {
	names := bench.Names()
	if quick {
		var small []string
		for _, e := range bench.Table1 {
			if e.InitialStates <= 100 {
				small = append(small, e.Name)
			}
		}
		names = small
	}

	rec := &benchrec.Record{
		Schema: benchrec.SchemaVersion,
		Env: benchrec.Env{
			GoVersion:     runtime.Version(),
			GOOS:          runtime.GOOS,
			GOARCH:        runtime.GOARCH,
			NumCPU:        runtime.NumCPU(),
			GOMAXPROCS:    runtime.GOMAXPROCS(0),
			Commit:        gitCommit(),
			Workers:       workers,
			MaxBacktracks: maxBT,
			Quick:         quick,
		},
	}

	// Rows fan out over the worker pool; like cmd/table1, each synthesis
	// runs its stages sequentially when the row pool already saturates
	// the cores, and gets the whole machine when rows are sequential.
	inner := 0
	if par.Workers(workers) > 1 {
		inner = 1
	}
	rows, err := par.Map(len(names), workers, func(i int) (benchrec.Row, error) {
		name := names[i]
		row := benchrec.Row{Name: name}
		for _, m := range []struct {
			method asyncsyn.Method
			dst    *benchrec.MethodResult
		}{
			{asyncsyn.Modular, &row.Modular},
			{asyncsyn.Direct, &row.Direct},
			{asyncsyn.Lavagno, &row.Lavagno},
		} {
			res, init, initSig := runOne(name, asyncsyn.Options{
				Method: m.method, MaxBacktracks: maxBT, Workers: inner,
				CacheDir: cacheDir,
			})
			*m.dst = res
			if init > 0 {
				row.InitialStates, row.InitialSignals = init, initSig
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %-16s modular %.2fs  direct %.2fs  lavagno %.2fs\n",
			name, row.Modular.Seconds, row.Direct.Seconds, row.Lavagno.Seconds)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	rec.Rows = rows

	if rec.Cache, err = cacheSweep(maxBT, workers); err != nil {
		return nil, err
	}
	if !quick {
		if rec.Clauses, err = clauseSweep(maxBT, workers); err != nil {
			return nil, err
		}
		if rec.Scaling, err = scalingSweep(workers); err != nil {
			return nil, err
		}
	}
	return rec, rec.Validate()
}

// cacheSweep measures solve-cache effectiveness on the small rows (the
// sweep runs in both quick and full mode): each benchmark is
// synthesized twice (modular method) against one shared in-memory
// cache — cold, then warm — recording the wall-clock and module-stage
// speedup, the warm run's hit/miss counters, and whether the warm run
// reproduced the cold run's digest bit for bit.
func cacheSweep(maxBT int64, workers int) ([]benchrec.CacheRow, error) {
	var names []string
	for _, e := range bench.Table1 {
		if e.InitialStates <= 100 {
			names = append(names, e.Name)
		}
	}
	return par.Map(len(names), workers, func(i int) (benchrec.CacheRow, error) {
		name := names[i]
		src, err := bench.Source(name)
		if err != nil {
			return benchrec.CacheRow{}, err
		}
		cache := asyncsyn.NewSolveCache()
		run := func() (*asyncsyn.Circuit, error) {
			g, err := asyncsyn.ParseSTGString(src)
			if err != nil {
				return nil, err
			}
			return asyncsyn.Synthesize(g, asyncsyn.Options{
				Method: asyncsyn.Modular, MaxBacktracks: maxBT, Workers: 1,
				Cache: cache, Metrics: asyncsyn.NewMetrics(),
			})
		}
		cold, err := run()
		if err != nil {
			return benchrec.CacheRow{}, fmt.Errorf("cache %s cold: %w", name, err)
		}
		warm, err := run()
		if err != nil {
			return benchrec.CacheRow{}, fmt.Errorf("cache %s warm: %w", name, err)
		}
		row := benchrec.CacheRow{
			Name:              name,
			ColdSeconds:       cold.CPU.Seconds(),
			WarmSeconds:       warm.CPU.Seconds(),
			ColdModuleSeconds: stageSeconds(cold, "modules"),
			WarmModuleSeconds: stageSeconds(warm, "modules"),
			Hits:              warm.Counters["modcache_hits"],
			Misses:            warm.Counters["modcache_misses"],
			WarmClauses:       cold.Counters["sat_warm_clauses"],
			DigestMatch:       cold.Digest() == warm.Digest(),
		}
		fmt.Fprintf(os.Stderr, "bench: cache %-12s modules %.3fs cold -> %.3fs warm, %d hits, digest match %v\n",
			name, row.ColdModuleSeconds, row.WarmModuleSeconds, row.Hits, row.DigestMatch)
		return row, nil
	})
}

// stageSeconds returns the duration of the named pipeline stage.
func stageSeconds(c *asyncsyn.Circuit, stage string) float64 {
	for _, st := range c.Stages {
		if st.Name == stage {
			return st.Duration.Seconds()
		}
	}
	return 0
}

// runOne synthesizes one benchmark with one method, metrics attached,
// and flattens the circuit into a MethodResult, including the run's
// heap-allocation deltas (approximate when rows run concurrently; see
// benchrec.MethodResult).
func runOne(name string, opt asyncsyn.Options) (res benchrec.MethodResult, initStates, initSignals int) {
	src, err := bench.Source(name)
	if err != nil {
		return benchrec.MethodResult{Error: err.Error()}, 0, 0
	}
	g, err := asyncsyn.ParseSTGString(src)
	if err != nil {
		return benchrec.MethodResult{Error: err.Error()}, 0, 0
	}
	opt.Metrics = asyncsyn.NewMetrics()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	watch := metrics.WatchHeap(5 * time.Millisecond)
	c, err := asyncsyn.Synthesize(g, opt)
	peak := watch.Stop()
	if err != nil {
		return benchrec.MethodResult{Error: err.Error()}, 0, 0
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r := flatten(c)
	r.AllocBytes = after.TotalAlloc - before.TotalAlloc
	r.Allocs = after.Mallocs - before.Mallocs
	r.PeakHeapBytes = peak
	return r, c.InitialStates, c.InitialSignals
}

func flatten(c *asyncsyn.Circuit) benchrec.MethodResult {
	res := benchrec.MethodResult{
		Seconds:  c.CPU.Seconds(),
		Aborted:  c.Aborted,
		Counters: c.Counters,
	}
	for _, st := range c.Stages {
		res.Stages = append(res.Stages, benchrec.StageTiming{Name: st.Name, Seconds: st.Duration.Seconds()})
	}
	if c.Aborted {
		return res
	}
	res.States = c.FinalStates
	res.Signals = c.FinalSignals
	res.StateSignals = c.StateSignals
	res.Area = c.Area
	res.Digest = c.Digest()
	for _, m := range c.Modules {
		ms := benchrec.ModuleStat{Output: m.Output, States: m.MergedStates, Conflicts: m.Conflicts}
		// Largest formula the module's pass attempted.
		for _, f := range c.Formulas {
			if f.Output == m.Output && f.Clauses > ms.Clauses {
				ms.Clauses, ms.Vars = f.Clauses, f.Vars
			}
		}
		res.Modules = append(res.Modules, ms)
	}
	return res
}

// clauseSweep reproduces the formula-size comparison (paper-style
// expanded CNF): the direct method's largest formula against every
// modular formula, on the rows EXPERIMENTS.md reports.
func clauseSweep(maxBT int64, workers int) ([]benchrec.ClauseRow, error) {
	names := []string{"mmu0", "mr0", "mr1", "vbe4a"}
	return par.Map(len(names), workers, func(i int) (benchrec.ClauseRow, error) {
		name := names[i]
		cl := benchrec.ClauseRow{Name: name}
		synth := func(method asyncsyn.Method) (*asyncsyn.Circuit, error) {
			src, err := bench.Source(name)
			if err != nil {
				return nil, err
			}
			g, err := asyncsyn.ParseSTGString(src)
			if err != nil {
				return nil, err
			}
			return asyncsyn.Synthesize(g, asyncsyn.Options{
				Method: method, MaxBacktracks: maxBT, ExpandXor: true, Workers: 1,
			})
		}
		d, err := synth(asyncsyn.Direct)
		if err != nil {
			return cl, fmt.Errorf("clauses %s direct: %w", name, err)
		}
		for _, f := range d.Formulas {
			if f.Clauses > cl.DirectClauses {
				cl.DirectClauses, cl.DirectVars = f.Clauses, f.Vars
			}
		}
		m, err := synth(asyncsyn.Modular)
		if err != nil {
			return cl, fmt.Errorf("clauses %s modular: %w", name, err)
		}
		for _, f := range m.Formulas {
			cl.Modular = append(cl.Modular, benchrec.ClauseFormula{Clauses: f.Clauses, Vars: f.Vars})
		}
		fmt.Fprintf(os.Stderr, "bench: clauses %-10s direct %d cls, %d modular formulas\n",
			name, cl.DirectClauses, len(cl.Modular))
		return cl, nil
	})
}

// scalingSweep runs the parametric handshake family (k concurrent slave
// handshakes in two phases — the mr/mmu structure) through all three
// methods, as examples/scaling does. The modular method runs unbounded —
// how far it scales is the sweep's whole point — while the direct and
// lavagno baselines carry a wall-clock budget per point (they exhaust
// their backtrack budgets by k=3–4 anyway); a budget expiry is recorded
// as an aborted cell with the elapsed time. The k=7 attempt is the one
// exception: even the modular method gets a wall-clock cap there, so a
// record can be produced on hosts where the ~156k-state point does not
// finish. Every cell also records its sampled peak heap (the k=6 point
// only became recordable with the frontier-bounded streaming expansion)
// and, for the modular cells, the module-stage seconds.
func scalingSweep(workers int) ([]benchrec.ScalingRow, error) {
	const points = 7
	const baselineBudget = 2 * time.Minute
	const attemptBudget = 10 * time.Minute
	return par.Map(points, workers, func(i int) (benchrec.ScalingRow, error) {
		k := i + 1
		row := benchrec.ScalingRow{K: k}
		spec, err := stg.Handshakes("", k, 2)
		if err != nil {
			return row, err
		}
		src := stg.Format(spec)
		runCell := func(opt asyncsyn.Options) (benchrec.ScalCell, int, error) {
			opt.MaxStates = scalingMaxStates
			g, err := asyncsyn.ParseSTGString(src)
			if err != nil {
				return benchrec.ScalCell{}, 0, err
			}
			start := time.Now()
			watch := metrics.WatchHeap(5 * time.Millisecond)
			c, err := asyncsyn.Synthesize(g, opt)
			peak := watch.Stop()
			if err != nil {
				if errors.Is(err, asyncsyn.ErrCanceled) || errors.Is(err, asyncsyn.ErrStateLimit) {
					// Budget expiry or a point past the sweep's state cap:
					// both are honest "this method stopped here" cells,
					// not record-killing failures.
					return benchrec.ScalCell{Seconds: time.Since(start).Seconds(), Aborted: true, PeakHeapBytes: peak}, 0, nil
				}
				return benchrec.ScalCell{}, 0, err
			}
			cell := benchrec.ScalCell{Seconds: c.CPU.Seconds(), Area: c.Area, Aborted: c.Aborted,
				PeakHeapBytes: peak, ModuleSeconds: stageSeconds(c, "modules")}
			if c.Aborted {
				cell.Area = 0
			}
			return cell, c.InitialStates, nil
		}
		for _, m := range []struct {
			method asyncsyn.Method
			dst    *benchrec.ScalCell
		}{
			{asyncsyn.Modular, &row.Modular},
			{asyncsyn.Direct, &row.Direct},
			{asyncsyn.Lavagno, &row.Lavagno},
		} {
			opt := asyncsyn.Options{Method: m.method, MaxBacktracks: 300000, Workers: 1}
			if m.method != asyncsyn.Modular {
				opt.Timeout = baselineBudget
			} else if k >= 7 {
				opt.Timeout = attemptBudget
			}
			cell, init, err := runCell(opt)
			if err != nil {
				return row, fmt.Errorf("scaling k=%d %v: %w", k, m.method, err)
			}
			*m.dst = cell
			if row.States == 0 && init > 0 {
				row.States = init
			}
		}
		fmt.Fprintf(os.Stderr, "bench: scaling k=%d (%d states) done\n", k, row.States)
		return row, nil
	})
}

// gitCommit records the source revision, best effort.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
