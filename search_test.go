package asyncsyn

import (
	"fmt"
	"testing"
	"time"

	"asyncsyn/internal/stg"
)

// TestHandshakeSearchPinned pins the module-stage SAT search at handshake
// scale, where most variables are never bumped by a conflict and the
// branching order draws most decisions from their fixed initial rank
// (the trajectory golden's small random formulas bump nearly every
// variable). For k = 3, 4 and 5 the digest, the area, the state-signal
// count and all six SAT counters must match; a change meant to leave the
// search alone (a faster branching order, a cheaper value table) must
// not move any of them.
func TestHandshakeSearchPinned(t *testing.T) {
	type counters struct {
		formulas, decisions, conflicts, props, learned, restarts int64
	}
	pins := []struct {
		k            int
		digest       string
		area, states int
		sat          counters
	}{
		{3, "f491a9a41000", 45, 3, counters{3, 975, 129, 4640, 129, 0}},
		{4, "068acd6bcd59", 66, 4, counters{4, 12614, 585, 67565, 585, 3}},
		{5, "fed269015814", 137, 5, counters{5, 164689, 2508, 857312, 2508, 11}},
	}
	for _, p := range pins {
		t.Run(fmt.Sprintf("k=%d", p.k), func(t *testing.T) {
			spec, err := stg.Handshakes("", p.k, 2)
			if err != nil {
				t.Fatal(err)
			}
			g, err := ParseSTGString(stg.Format(spec))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Synthesize(g, Options{Method: Modular, Workers: 1, MaxStates: 1 << 20, Metrics: NewMetrics()})
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			if d := c.Digest(); d != p.digest {
				t.Errorf("digest %s, want %s", d, p.digest)
			}
			if c.Area != p.area || c.StateSignals != p.states {
				t.Errorf("area/state signals %d/%d, want %d/%d", c.Area, c.StateSignals, p.area, p.states)
			}
			got := counters{
				c.Counters["sat_formulas"], c.Counters["sat_decisions"], c.Counters["sat_conflicts"],
				c.Counters["sat_propagations"], c.Counters["sat_learned"], c.Counters["sat_restarts"],
			}
			if got != p.sat {
				t.Errorf("SAT counters (formulas, decisions, conflicts, propagations, learned, restarts) %v, want %v", got, p.sat)
			}
		})
	}
}

// TestFormulaSearchTime: a formula's Search is the engine call alone, so
// it never exceeds its Time, which also covers the cache key, encoding
// and load; a cache hit searched nothing and reports 0.
func TestFormulaSearchTime(t *testing.T) {
	for _, method := range []Method{Modular, Direct, Lavagno} {
		t.Run(method.String(), func(t *testing.T) {
			cache := NewSolveCache()
			cold := synthWorkers(t, "mmu1", Options{Method: method, Workers: 1, Cache: cache})
			var search time.Duration
			for i, f := range cold.Formulas {
				if f.Search < 0 || f.Search > f.Time {
					t.Errorf("formula %d: search %v outside [0, time %v]", i, f.Search, f.Time)
				}
				if f.Cached && f.Search != 0 {
					t.Errorf("formula %d: cache hit with search %v", i, f.Search)
				}
				search += f.Search
			}
			if search == 0 {
				t.Errorf("%d formulas searched for 0s in all", len(cold.Formulas))
			}
			if method == Lavagno {
				return // its CSC stage calls the engine directly, outside the module cache
			}
			warm := synthWorkers(t, "mmu1", Options{Method: method, Workers: 1, Cache: cache})
			for i, f := range warm.Formulas {
				if !f.Cached || f.Search != 0 {
					t.Errorf("warm run formula %d: cached %v, search %v; want a hit with search 0", i, f.Cached, f.Search)
				}
			}
		})
	}
}
