// Command perfbench is the performance benchmark of the synthesis flow.
// It drives the library from outside, through the asyncsyn facade, on
// four workloads, checks every circuit it times, and reports end-to-end
// metrics from untraced runs and per-layer metrics from a traced run.
//
// Usage, from the repository root:
//
//	bash cmd/perfbench/run.sh [-workload name] [-seed N] [-seconds S] [-trace 0|1] [-out result.json] [-spans spans.json]
//
// Without -workload every workload runs; without -trace each runs an
// untraced then a traced phase, each measuring -seconds. The last line
// of standard output is a JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 1 when any check failed and 2 on
// a usage or set-up error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"asyncsyn"
)

// Each run sets its workload up at least setupMinReps times and for at
// least setupMinTime, so that a set-up of a few tens of milliseconds is
// repeated enough for a steady median; setup_s is that median.
const (
	setupMinReps = 3
	setupMinTime = time.Second
)

// commit is the revision the binary was built from; run.sh sets it with
// -ldflags "-X main.commit=...". The run header says unknown without it.
var commit string

type config struct {
	workloads []workload
	seed      int64
	window    time.Duration // measured duration of each phase
	trace     int           // -1: untraced then traced phase; 0: untraced only; 1: traced only
	out       string
	spans     string
}

func main() {
	// One processor runs Go code. The time metrics are CPU times, and with
	// two processors the speculative module lanes (Workers defaults to
	// GOMAXPROCS) do an amount of discarded work that depends on how the
	// host schedules them: a competing process moved the median item CPU
	// time of table1-cold by 10% at GOMAXPROCS 2 and not beyond the
	// host's drift at 1.
	runtime.GOMAXPROCS(1)
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "seed of the spec order of every pass")
	seconds := fs.Float64("seconds", 25, "measured window of each phase in seconds")
	trace := fs.Int("trace", -1, "0: untraced phase only (end-to-end metrics); 1: traced phase only (per-layer metrics); default both")
	out := fs.String("out", "", "write every metric and the raw per-item samples as JSON to this file")
	spans := fs.String("spans", "", "write the traced items' spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace < -1 || *trace > 1 {
		return config{}, fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("-seconds must be positive")
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace, out: *out, spans: *spans, workloads: workloads}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return config{}, fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames())
		}
		cfg.workloads = []workload{w}
	}
	return cfg, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// header identifies the host and build a run was measured on.
type header struct {
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
}

func newHeader(seed int64) header {
	h := header{GoVersion: runtime.Version(), Commit: commit, OS: runtime.GOOS, Arch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	return h
}

// report is everything one workload run measured; -out writes it.
type report struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	// Each set-up and item has its wall time, its CPU time and the host
	// scale over its interval (host.go); the end-to-end time metrics are
	// medians of CPU time × scale.
	SetupWallS  []float64  `json:"setup_wall_s"`
	SetupCPUS   []float64  `json:"setup_cpu_s"`
	SetupScale  []float64  `json:"setup_host_scale"`
	Items       *summary   `json:"items_wall,omitempty"`
	ItemsCPU    *summary   `json:"items_cpu,omitempty"`
	ItemsMS     []float64  `json:"items_wall_ms,omitempty"`
	ItemsCPUMS  []float64  `json:"items_cpu_ms,omitempty"`
	ItemsScale  []float64  `json:"items_host_scale,omitempty"`
	PeakHeapMiB []float64  `json:"items_peak_heap_mib,omitempty"`
	Host        *hostSpeed `json:"host,omitempty"`
	// The traced phase's item times are wall times.
	Traced       *summary           `json:"traced_items,omitempty"`
	TracedMS     []float64          `json:"traced_items_ms,omitempty"`
	Untraced     *summary           `json:"trace_phase_untraced_items,omitempty"`
	UntracedMS   []float64          `json:"trace_phase_untraced_items_ms,omitempty"`
	EndToEnd     map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailureRatio float64            `json:"failure_ratio"`
	Failures     []string           `json:"failures,omitempty"`
}

func runWorkload(w workload, cfg config, tr *tracer) (*report, error) {
	r := &report{Workload: w.name, Why: w.why}
	pr, err := startProbe()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var st *state
	var setups []interval
	for first := time.Now(); len(setups) < setupMinReps || time.Since(first) < setupMinTime; {
		start, cpu0 := time.Now(), cpuTime()
		s, err := setup(w, cfg.seed)
		if err != nil {
			pr.stop()
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		end := time.Now()
		r.SetupWallS = append(r.SetupWallS, end.Sub(start).Seconds())
		r.SetupCPUS = append(r.SetupCPUS, (cpuTime() - cpu0).Seconds())
		setups = append(setups, interval{start, end})
		st = s
	}
	var p phase
	if cfg.trace <= 0 {
		p = st.measure(cfg.window)
	}
	var tp tracePhase
	if cfg.trace != 0 {
		tp = st.traceRun(cfg.window, tr)
	}
	host := pr.stop()
	r.Host = &host
	var setupS, cpu float64
	r.SetupScale, setupS = host.scale(r.SetupCPUS, setups)
	if cfg.trace <= 0 {
		wall, cpuSum := summarize(p.itemsMS), summarize(p.cpuMS)
		r.Items, r.ItemsCPU = &wall, &cpuSum
		r.ItemsMS, r.ItemsCPUMS, r.PeakHeapMiB = p.itemsMS, p.cpuMS, p.peakMiB
		r.ItemsScale, cpu = host.scale(p.cpuMS, p.intervals)
		r.Attempted += p.attempted
		r.Failed += p.failed
		r.EndToEnd = map[string]float64{
			"setup_s":    setupS,
			"cpu_p50_ms": cpu,
			// The median item's peak: the window maximum, printed beside
			// it, is set by rare single-item spikes and does not repeat
			// from run to run.
			"peak_heap_mib": median(p.peakMiB),
		}
	}
	var overhead float64
	if cfg.trace != 0 {
		ts, us := summarize(tp.traced.itemsMS), summarize(tp.untraced.itemsMS)
		r.Traced, r.TracedMS = &ts, tp.traced.itemsMS
		r.Untraced, r.UntracedMS = &us, tp.untraced.itemsMS
		r.Attempted += tp.traced.attempted + tp.untraced.attempted
		r.Failed += tp.traced.failed + tp.untraced.failed
		// Traced and untraced items alternate, but on direct-sat there are
		// only one or two of each, so the host's drift is taken out first.
		_, traced := host.scale(tp.traced.cpuMS, tp.traced.intervals)
		_, untraced := host.scale(tp.untraced.cpuMS, tp.untraced.intervals)
		overhead = ratio(traced, untraced)
	}
	verifyTime, verifyFailed := st.verify()
	r.Failed += verifyFailed
	if r.EndToEnd != nil {
		r.EndToEnd["area_literals"] = st.onePass(func(c *asyncsyn.Circuit) int { return c.Area })
		r.EndToEnd["state_signals"] = st.onePass(func(c *asyncsyn.Circuit) int { return c.StateSignals })
	}
	if cfg.trace != 0 {
		r.PerLayer = make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			vals := make([]float64, len(tp.layers))
			for i, l := range tp.layers {
				vals[i] = l[m.name]
			}
			r.PerLayer[m.name] = median(vals)
		}
		r.PerLayer["sim.verify_ms"] = ms(verifyTime)
		r.PerLayer["runtime.alloc_mib_per_item"] = median(tp.allocMiB)
		r.PerLayer["runtime.gc_cycles_per_item"] = median(tp.gcs)
		r.PerLayer["trace.overhead_ratio"] = overhead
	}
	r.FailureRatio = ratio(float64(r.Failed), float64(r.Attempted))
	r.Failures = st.failures
	return r, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOf builds the result line. With one workload the metrics carry
// their plain names; with several, each is prefixed with its workload.
func resultOf(reports []*report) result {
	res := result{Metrics: make(map[string]metricValue)}
	for _, r := range reports {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		prefix := ""
		if len(reports) > 1 {
			prefix = r.Workload + "."
		}
		for _, set := range []struct {
			defs []metricDef
			vals map[string]float64
		}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
			if set.vals == nil {
				continue
			}
			for _, m := range set.defs {
				res.Metrics[prefix+m.name] = metricValue{set.vals[m.name], m.unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

func run(cfg config, stdout io.Writer) (bool, error) {
	h := newHeader(cfg.seed)
	fmt.Fprintf(stdout, "perfbench %s commit=%s %s/%s NumCPU=%d GOMAXPROCS=%d seed=%d\n",
		h.GoVersion, h.Commit, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, h.Seed)
	tr := newTracer(cfg.spans != "")
	var reports []*report
	for _, w := range cfg.workloads {
		r, err := runWorkload(w, cfg, tr)
		if err != nil {
			return false, err
		}
		printReport(stdout, r)
		reports = append(reports, r)
	}
	if cfg.out != "" {
		doc := struct {
			Header    header    `json:"header"`
			Workloads []*report `json:"workloads"`
		}{h, reports}
		if err := writeJSON(cfg.out, doc); err != nil {
			return false, err
		}
	}
	if cfg.spans != "" {
		if err := writeJSON(cfg.spans, tr.all); err != nil {
			return false, err
		}
	}
	res := resultOf(reports)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res.Correct, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n== %s: %s\n", r.Workload, r.Why)
	fmt.Fprintf(w, "  setup         samples=%d median wall %.4f cpu %.4f s\n", len(r.SetupCPUS), median(r.SetupWallS), median(r.SetupCPUS))
	printSummary(w, "items wall", r.Items)
	printSummary(w, "items cpu", r.ItemsCPU)
	if len(r.PeakHeapMiB) > 0 {
		peaks := sortedCopy(r.PeakHeapMiB)
		fmt.Fprintf(w, "  item peak heap samples=%d p50 %.2f max %.2f MiB\n", len(peaks), quantile(peaks, 0.5), peaks[len(peaks)-1])
	}
	if r.Host != nil {
		fmt.Fprintf(w, "  host probe    samples=%d median chunk %.2f µs per table, scale %.4f\n", r.Host.Ticks, r.Host.MedianUS, r.Host.Scale)
	}
	printSummary(w, "traced items", r.Traced)
	printSummary(w, "  (untraced)", r.Untraced)
	fmt.Fprintf(w, "  failure_ratio %g (%d of %d attempted)\n", r.FailureRatio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	printMetrics(w, "end-to-end, CPU times scaled by the host probe", endToEnd, r.EndToEnd)
	printMetrics(w, "per-layer, median per traced item", perLayer, r.PerLayer)
}

func printSummary(w io.Writer, label string, s *summary) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "  %-13s samples=%d p25 %.3f p50 %.3f p75 %.3f", label, s.Samples, s.P25, s.P50, s.P75)
	if s.P95 != nil {
		fmt.Fprintf(w, " p95 %.3f", *s.P95)
	}
	fmt.Fprintln(w, " ms")
}

func printMetrics(w io.Writer, title string, defs []metricDef, vals map[string]float64) {
	if vals == nil {
		return
	}
	fmt.Fprintf(w, "  %s:\n", title)
	for _, m := range defs {
		fmt.Fprintf(w, "    %-28s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
}
