package sg

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// streamOf is the oracle for ExpandStream: the column view read off an
// already-materialized phase-free graph (typically the result of
// Expand). Waves and PeakFrontier stay zero since nothing was streamed.
func streamOf(g *Graph) (*Stream, error) {
	if len(g.StateSigs) > 0 {
		return nil, fmt.Errorf("sg: streamOf requires an expanded, phase-free graph")
	}
	n := len(g.States)
	st := &Stream{
		Name:    g.Name,
		Base:    g.Base,
		Active:  g.Active,
		Initial: g.Initial,
		Codes:   make([]uint64, n),
		Enabled: make([]uint64, n),
		Implied: make([]uint64, n),
		Origin:  make([]int, n),
	}
	for s := 0; s < n; s++ {
		st.Codes[s] = g.States[s].Code
		st.Enabled[s] = g.EnabledNonInputs(s)
		st.Implied[s] = g.impliedMask(s)
		if g.Origin != nil {
			st.Origin[s] = g.Origin[s]
		} else {
			st.Origin[s] = s
		}
	}
	return st, nil
}

// TestExpandStreamMatchesMaterialized pins the streaming wave expansion
// bit-identical to the materializing path across the property corpus:
// same interning order, same codes, same enabled masks, same implied
// values, same origins.
func TestExpandStreamMatchesMaterialized(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		st, err := g.ExpandStream()
		if err != nil {
			t.Fatalf("graph %d: ExpandStream: %v", gi, err)
		}
		ex, err := g.Expand()
		if err != nil {
			t.Fatalf("graph %d: Expand: %v", gi, err)
		}
		want, err := streamOf(ex)
		if err != nil {
			t.Fatalf("graph %d: streamOf: %v", gi, err)
		}
		if !reflect.DeepEqual(st.Base, want.Base) || st.Active != want.Active || st.Initial != want.Initial {
			t.Fatalf("graph %d: header diverges: base %v/%v active %b/%b initial %d/%d",
				gi, st.Base, want.Base, st.Active, want.Active, st.Initial, want.Initial)
		}
		if !reflect.DeepEqual(st.Codes, want.Codes) {
			t.Fatalf("graph %d: codes diverge\n stream %v\n materialized %v", gi, st.Codes, want.Codes)
		}
		if !reflect.DeepEqual(st.Enabled, want.Enabled) {
			t.Fatalf("graph %d: enabled masks diverge\n stream %v\n materialized %v", gi, st.Enabled, want.Enabled)
		}
		if !reflect.DeepEqual(st.Implied, want.Implied) {
			t.Fatalf("graph %d: implied masks diverge\n stream %v\n materialized %v", gi, st.Implied, want.Implied)
		}
		if !reflect.DeepEqual(st.Origin, want.Origin) {
			t.Fatalf("graph %d: origins diverge\n stream %v\n materialized %v", gi, st.Origin, want.Origin)
		}
		// Per-signal implied values against the graph's per-edge rule.
		for s := 0; s < ex.NumStates(); s++ {
			for sig := range st.Base {
				if got, want := st.ImpliedValue(s, sig), ex.ImpliedValue(s, sig); got != want {
					t.Fatalf("graph %d state %d sig %d: implied %d, want %d", gi, s, sig, got, want)
				}
			}
		}
		// Function tables of the stream and the materialized graph.
		for sig, b := range st.Base {
			if b.Input {
				continue
			}
			for _, mask := range []uint64{st.Active, st.Active & 0b111} {
				ft, err1 := st.FunctionTable(sig, mask)
				wt, err2 := ex.FunctionTable(sig, mask)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("graph %d sig %d mask %b: error mismatch %v / %v", gi, sig, mask, err1, err2)
				}
				if err1 == nil && !reflect.DeepEqual(ft, wt) {
					t.Fatalf("graph %d sig %d mask %b: tables diverge\n stream %+v\n materialized %+v",
						gi, sig, mask, ft, wt)
				}
			}
		}
	}
}

// TestAnalyzeStreamMatchesAnalyze pins the streamed conflict scan
// against the materialized one.
func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		st, err := g.ExpandStream()
		if err != nil {
			t.Fatalf("graph %d: ExpandStream: %v", gi, err)
		}
		ex, err := g.Expand()
		if err != nil {
			t.Fatalf("graph %d: Expand: %v", gi, err)
		}
		if got, want := AnalyzeStream(st), Analyze(ex); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: conflicts diverge\n stream %+v\n materialized %+v", gi, got, want)
		}
	}
}

// TestExpandWavesInvariants checks the frontier iterator's contract:
// states arrive exactly once in ascending index order, waves are
// non-decreasing, the peak frontier is the widest wave, and an emit
// error aborts the traversal and surfaces as-is.
func TestExpandWavesInvariants(t *testing.T) {
	for gi, g := range propertyGraphs(t) {
		var idx, lastWave int
		width := map[int]int{}
		waves, peak, err := g.ExpandWaves(func(ws WaveState) error {
			if ws.Index != idx {
				t.Fatalf("graph %d: index %d, want %d", gi, ws.Index, idx)
			}
			if ws.Wave < lastWave {
				t.Fatalf("graph %d state %d: wave %d after %d", gi, idx, ws.Wave, lastWave)
			}
			lastWave = ws.Wave
			width[ws.Wave]++
			idx++
			return nil
		})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		if len(width) != waves {
			t.Fatalf("graph %d: emitted %d distinct waves, reported %d", gi, len(width), waves)
		}
		maxW := 0
		for _, w := range width {
			if w > maxW {
				maxW = w
			}
		}
		if maxW != peak {
			t.Fatalf("graph %d: widest wave %d, reported peak %d", gi, maxW, peak)
		}
		st, err := g.ExpandStream()
		if err != nil {
			t.Fatal(err)
		}
		if idx != st.NumStates() {
			t.Fatalf("graph %d: emitted %d states, stream has %d", gi, idx, st.NumStates())
		}

		stop := errors.New("stop")
		if _, _, err := g.ExpandWaves(func(WaveState) error { return stop }); !errors.Is(err, stop) {
			t.Fatalf("graph %d: emit error not propagated: %v", gi, err)
		}
	}
}
