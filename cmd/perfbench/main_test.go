package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	s := sortedCopy(xs)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
	if xs[0] != 4 {
		t.Errorf("sortedCopy reordered its input: %v", xs)
	}

	few := make([]float64, p95MinSamples-1)
	for i := range few {
		few[i] = float64(i)
	}
	if s := summarize(few); s.P95 != nil || s.Samples != len(few) || s.P50 != 99 {
		t.Errorf("summarize(%d samples) = %+v, want no p95 and p50 99", len(few), s)
	}
	enough := append(few, float64(len(few)))
	if sum := summarize(enough); sum.P95 == nil || math.Abs(*sum.P95-189.05) > 1e-9 {
		t.Errorf("summarize(%d samples) p95 = %v, want 189.05", len(enough), sum.P95)
	}
}

func TestUnionWithin(t *testing.T) {
	w := span{Start: 10, End: 100}
	spans := []span{{Start: 0, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 55, End: 58}, {Start: 90, End: 200}}
	// [10,30) + [50,60) + [90,100) inside the window.
	if got := unionWithin(spans, w); got != 40 {
		t.Errorf("unionWithin = %d, want 40", got)
	}
	if got := unionWithin(nil, w); got != 0 {
		t.Errorf("unionWithin of no spans = %d, want 0", got)
	}
}

func TestSpanLayers(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "item", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "parse", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "synthesize", Start: 10, End: 100},
		{ID: 4, Parent: 3, Name: "stage.elaborate", Start: 10, End: 20},
		{ID: 5, Parent: 3, Name: "stage.modules", Start: 20, End: 80},
		{ID: 6, Parent: 5, Name: "formula", Start: 30, End: 50},
		{ID: 7, Parent: 5, Name: "formula", Start: 40, End: 60},
	}
	out := make(map[string]float64)
	spanLayers(spans, out)
	want := map[string]float64{
		"stg.parse_ms":         10 / 1e6,
		"stage.elaborate_ms":   10 / 1e6,
		"stage.modules_ms":     60 / 1e6,
		"core.self_ms":         30 / 1e6,
		"trace.coverage_ratio": 0.8,
	}
	for k, v := range want {
		if out[k] != v {
			t.Errorf("%s = %v, want %v", k, out[k], v)
		}
	}
}

func TestHostProbe(t *testing.T) {
	tables, err := probeTables()
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		x := uint64(1)
		if us := probeChunk(tb.keys, &x); us <= 0 || x == 1 {
			t.Errorf("probeChunk on %d keys = %v µs, key %d: want a positive time and an advanced key", len(tb.keys), us, x)
		}
	}
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	if h := p.stop(); h.Scale <= 0 {
		t.Errorf("probe = %+v, want a positive scale", h)
	}

	// Ticks at 0, 1, 2 and 3 s: the host ran at half the reference speed
	// (scale 0.5), then at the reference speed. A time is scaled by the
	// ticks from half a second before it to half a second after it.
	t0 := time.Now()
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	h := hostSpeed{Scale: 0.75, ticks: []tick{{at: at(0), scale: 0.5}, {at: at(1000), scale: 0.5}, {at: at(2000), scale: 1}, {at: at(3000), scale: 1}}}
	for _, c := range []struct {
		from, to int
		want     float64
	}{
		{0, 3000, 0.75},
		{0, 0, 0.5},
		{1200, 1300, 0.5},
		{1600, 2400, 1},
		{1500, 1500, 0.75},
		{5000, 6000, 0.75}, // no tick near: the median tick scale
	} {
		if got := h.scaleOver(interval{at(c.from), at(c.to)}); got != c.want {
			t.Errorf("scaleOver(%d..%d ms) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	// One disturbed tick among its neighbours does not move the scale.
	spiky := hostSpeed{ticks: []tick{{at: at(0), scale: 0.5}, {at: at(50), scale: 5}, {at: at(100), scale: 0.5}}}
	if got := spiky.scaleOver(interval{at(0), at(100)}); got != 0.5 {
		t.Errorf("scaleOver with one outlying tick = %v, want 0.5", got)
	}
	scales, med := h.scale([]float64{4, 6, 100}, []interval{{at(0), at(0)}, {at(2000), at(3000)}, {at(5000), at(6000)}})
	if med != 6 || len(scales) != 3 || scales[0] != 0.5 || scales[2] != 0.75 {
		t.Errorf("scale = %v, median %v; want scales [0.5 1 0.75], median 6", scales, med)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]+ or too long", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check("metric", m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s has unit %q", m.name, m.unit)
		}
	}
	// The modular method runs elaborate → modules → residual → expand →
	// logic, the direct method elaborate → csc → expand → logic.
	for _, s := range []string{"elaborate", "modules", "residual", "expand", "logic", "csc"} {
		if !seen["stage."+s+"_ms"] {
			t.Errorf("stage %s has no stage.%s_ms metric", s, s)
		}
	}
}

func TestMissingCountersReadAsZero(t *testing.T) {
	for _, counters := range []map[string]int64{nil, {"modules": 3, "retired_counter": 9}} {
		out := make(map[string]float64)
		counterLayers(counters, out)
		for _, m := range perLayer {
			if m.counter == "" {
				continue
			}
			want := float64(counters[m.counter])
			if got, ok := out[m.name]; !ok || got != want {
				t.Errorf("counters %v: %s = %v (present %v), want %v", counters, m.name, got, ok, want)
			}
		}
		if out["modcache.hit_ratio"] != 0 {
			t.Errorf("counters %v: hit ratio with no lookups = %v, want 0", counters, out["modcache.hit_ratio"])
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "direct-sat", "--seed", "7", "--seconds", "20", "--trace", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.workloads) != 1 || cfg.workloads[0].name != "direct-sat" || cfg.seed != 7 ||
		cfg.window != 20*time.Second || cfg.trace != 0 {
		t.Errorf("parseFlags = %+v", cfg)
	}
	for _, bad := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"extra"}} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}

// benchmarkFile mirrors the parts of BENCHMARK.json the binary must agree
// with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, binary %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	var e2e, layer []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v: bound or direction out of range", m)
		}
	}
	for _, m := range f.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	if got, want := strings.Join(e2e, ", "), defNames(endToEnd); got != want {
		t.Errorf("BENCHMARK.json end_to_end = %s, binary prints %s", got, want)
	}
	if got, want := strings.Join(layer, ", "), defNames(perLayer); got != want {
		t.Errorf("BENCHMARK.json per_layer = %s, binary prints %s", got, want)
	}
}

func defNames(defs []metricDef) string {
	var out []string
	for _, m := range defs {
		out = append(out, m.name+" "+m.unit)
	}
	return strings.Join(out, ", ")
}

// TestSmoke runs every workload end to end with a window so small that
// each phase runs its minimum number of items. handshake-k5, whose items
// take seconds, gets a small input of the same shape, so the test
// exercises its configuration without its cost.
func TestSmoke(t *testing.T) {
	ws := append([]workload(nil), workloads...)
	for i := range ws {
		if ws[i].name == "handshake-k5" {
			ws[i].load = handshakeSpecs(2)
		}
	}
	dir := t.TempDir()
	cfg := config{workloads: ws, seed: 3, window: time.Nanosecond, trace: -1,
		out: filepath.Join(dir, "out.json"), spans: filepath.Join(dir, "spans.json")}
	var stdout bytes.Buffer
	ok, err := run(cfg, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, stdout.String())
	}
	if !ok || !res.Correct || res.Failed != 0 || res.Attempted < 3*len(ws) {
		t.Fatalf("ok %v, result %+v\n%s", ok, res, stdout.String())
	}
	var want, got []string
	for _, w := range ws {
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			want = append(want, w.name+"."+m.name+" "+m.unit)
		}
		if !strings.Contains(stdout.String(), "== "+w.name+":") {
			t.Errorf("no report printed for %s", w.name)
		}
	}
	for k, v := range res.Metrics {
		got = append(got, k+" "+v.Unit)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("result metrics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, w := range ws {
		for _, m := range []string{"setup_s", "cpu_p50_ms", "peak_heap_mib", "area_literals"} {
			if v := res.Metrics[w.name+"."+m].Value; v <= 0 {
				t.Errorf("%s.%s = %v, want > 0", w.name, m, v)
			}
		}
	}

	var doc struct {
		Header    header
		Workloads []report
	}
	readJSON(t, cfg.out, &doc)
	if doc.Header.GOMAXPROCS < 1 || len(doc.Workloads) != len(ws) {
		t.Errorf("-out header %+v with %d workloads", doc.Header, len(doc.Workloads))
	}
	for _, r := range doc.Workloads {
		if len(r.ItemsMS) == 0 || len(r.ItemsCPUMS) != len(r.ItemsMS) || len(r.ItemsScale) != len(r.ItemsMS) ||
			len(r.TracedMS) == 0 || len(r.UntracedMS) == 0 ||
			len(r.SetupCPUS) < setupMinReps || len(r.SetupWallS) != len(r.SetupCPUS) || len(r.SetupScale) != len(r.SetupCPUS) {
			t.Errorf("-out %s lacks raw samples: %+v", r.Workload, r)
		}
	}

	var spans []span
	readJSON(t, cfg.spans, &spans)
	names := make(map[string]bool)
	for _, s := range spans {
		names[s.Name] = true
		if s.End < s.Start || s.Run == 0 || s.ID == 0 {
			t.Errorf("malformed span %+v", s)
		}
	}
	for _, n := range []string{"item", "parse", "synthesize", "stage.modules", "stage.csc", "formula", "probe.quotient"} {
		if !names[n] {
			t.Errorf("no %s span in -spans output", n)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
