package asyncsyn

// Metrics contract at the facade: counters ride the context only when a
// collector is attached (nil-overhead otherwise), land as per-run deltas
// in Circuit.Counters and per-stage in Circuit.Stages, and the
// deterministic counters are identical for every Workers value.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"

	"asyncsyn/internal/bench"
)

// counterFingerprint flattens the deterministic counters — graph sizes,
// formula sizes, module counts, minimizer passes and the SAT search
// stats.
func counterFingerprint(c *Circuit) string {
	keys := make([]string, 0, len(c.Counters))
	for k := range c.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s=%d\n", k, c.Counters[k])
	}
	return s
}

func TestCounterDeterminismAcrossWorkers(t *testing.T) {
	names := []string{"vbe4a", "nak-pa"}
	if !testing.Short() {
		names = append(names, "mmu1")
	}
	for _, name := range names {
		for _, method := range []Method{Modular, Direct, Lavagno} {
			t.Run(fmt.Sprintf("%s/%v", name, method), func(t *testing.T) {
				base := synthWorkers(t, name, Options{Method: method, Workers: 1, Metrics: NewMetrics()})
				want := counterFingerprint(base)
				if want == "" {
					t.Fatal("no counters recorded")
				}
				for _, w := range []int{2, runtime.GOMAXPROCS(0)} {
					c := synthWorkers(t, name, Options{Method: method, Workers: w, Metrics: NewMetrics()})
					if got := counterFingerprint(c); got != want {
						t.Errorf("Workers=%d counters diverge from Workers=1:\n--- got ---\n%s--- want ---\n%s", w, got, want)
					}
				}
			})
		}
	}
}

func TestCountersAreRunDeltas(t *testing.T) {
	// One shared collector across two runs: each circuit still reports
	// only its own delta, while the collector accumulates the total.
	m := NewMetrics()
	c1 := synthWorkers(t, "vbe4a", Options{Metrics: m})
	c2 := synthWorkers(t, "vbe4a", Options{Metrics: m})
	if c1.Counters["sg_states"] == 0 || c1.Counters["modules"] == 0 {
		t.Fatalf("first run recorded no counters: %v", c1.Counters)
	}
	if c1.Counters["sg_states"] != c2.Counters["sg_states"] {
		t.Errorf("identical runs disagree: %v vs %v", c1.Counters, c2.Counters)
	}
	if total := m.Map()["sg_states"]; total != 2*c1.Counters["sg_states"] {
		t.Errorf("collector total %d, want twice the per-run delta %d", total, c1.Counters["sg_states"])
	}
}

func TestNoMetricsMeansNoCounters(t *testing.T) {
	c := synthWorkers(t, "vbe4a", Options{})
	if c.Counters != nil {
		t.Errorf("run without Options.Metrics has Counters %v", c.Counters)
	}
	for _, st := range c.Stages {
		if st.Counters != nil {
			t.Errorf("stage %s has counters %v without a collector", st.Name, st.Counters)
		}
	}
}

func TestStageCountersSumToRunDelta(t *testing.T) {
	c := synthWorkers(t, "mmu1", Options{Metrics: NewMetrics()})
	sum := make(map[string]int64)
	for _, st := range c.Stages {
		for k, v := range st.Counters {
			sum[k] += v
		}
	}
	for k, v := range c.Counters {
		if sum[k] != v {
			t.Errorf("counter %s: stages sum to %d, run delta %d", k, sum[k], v)
		}
	}
	for _, k := range []string{"sg_states", "sat_clauses", "modules", "espresso_expand"} {
		if c.Counters[k] == 0 {
			t.Errorf("counter %s not advanced on mmu1", k)
		}
	}
}

// TestFormulaCountersMatchFormulas: the SAT formula counters of a run
// count exactly the formulas it reports, whichever method produced
// them — the Lavagno-style baseline's csc-stage formulas included.
func TestFormulaCountersMatchFormulas(t *testing.T) {
	for _, name := range bench.Names() {
		for _, method := range []Method{Modular, Direct, Lavagno} {
			t.Run(fmt.Sprintf("%s/%v", name, method), func(t *testing.T) {
				if testing.Short() && method == Direct && (name == "mr0" || name == "mr1" || name == "mmu0") {
					t.Skip("one whole-graph formula of several seconds")
				}
				c := synthWorkers(t, name, Options{Method: method, MaxBacktracks: 100000, Metrics: NewMetrics()})
				clauses := int64(0)
				for _, f := range c.Formulas {
					clauses += int64(f.Clauses)
				}
				if n := c.Counters["sat_formulas"]; n != int64(len(c.Formulas)) {
					t.Errorf("sat_formulas %d for %d reported formulas", n, len(c.Formulas))
				}
				if n := c.Counters["sat_clauses"]; n != clauses {
					t.Errorf("sat_clauses %d, reported formulas hold %d clauses", n, clauses)
				}
			})
		}
	}
}
