package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/sg"
)

func TestDetermineInputSetInvariants(t *testing.T) {
	for _, name := range []string{"fifo", "sbuf-read-ctl", "mmu1", "nak-pa"} {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sg.FromSTG(spec, sg.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range nonInputsByName(full) {
			is := DetermineInputSet(full, spec, o)
			if is.Mask&(1<<o) == 0 {
				t.Errorf("%s/%s: output not in its own input set", name, full.Base[o].Name)
			}
			if is.Mask&is.Silenced != 0 {
				t.Errorf("%s/%s: mask and silenced overlap", name, full.Base[o].Name)
			}
			if is.Mask|is.Silenced != full.Active {
				t.Errorf("%s/%s: mask ∪ silenced ≠ active", name, full.Base[o].Name)
			}
			// Immediate inputs always kept.
			si, _ := spec.SignalIndex(full.Base[o].Name)
			for _, trig := range spec.ImmediateInputs(si) {
				gi, _ := full.SignalIndex(spec.Signals[trig].Name)
				if is.Silenced&(1<<gi) != 0 {
					t.Errorf("%s/%s: trigger %s silenced", name, full.Base[o].Name, spec.Signals[trig].Name)
				}
			}
			// The paper's guarantee: merging never increases the conflict
			// count beyond the unmerged graph.
			n0, _ := outputStats(full, o)
			if is.Ncsc > n0 {
				t.Errorf("%s/%s: modular conflicts %d > full-graph %d", name, full.Base[o].Name, is.Ncsc, n0)
			}
		}
	}
}

func TestDetermineInputSetRemovesSignals(t *testing.T) {
	// In mmu1, each bank's t-signal is irrelevant to the other bank's
	// select output; the greedy pass must silence something for at least
	// one output.
	spec, err := bench.Load("mmu1")
	if err != nil {
		t.Fatal(err)
	}
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	removedAny := false
	for _, o := range nonInputsByName(full) {
		is := DetermineInputSet(full, spec, o)
		if is.Silenced != 0 {
			removedAny = true
		}
	}
	if !removedAny {
		t.Fatalf("input-set derivation silenced nothing on mmu1")
	}
}

func TestPartitionSATNoConflicts(t *testing.T) {
	spec := mustParse(t, `
.model hs
.inputs r
.outputs a
.graph
r+ a+
a+ r-
r- a-
a- r+
.marking { <a-,r+> }
.end
`)
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := full.SignalIndex("a")
	is := DetermineInputSet(full, spec, o)
	pr, err := PartitionSAT(context.Background(), full, is, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NewSignals != 0 || len(full.StateSigs) != 0 {
		t.Fatalf("clean output gained signals: %+v", pr)
	}
}

func TestPartitionSATInsertsAndPropagates(t *testing.T) {
	spec := mustParse(t, twoPhase)
	full, err := sg.FromSTG(spec, sg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := full.SignalIndex("b")
	is := DetermineInputSet(full, spec, o)
	// The module's cover relation, as PartitionSAT derives it.
	merged, ok := withStateSigs(full, is.StateSigs).Quotient(is.Silenced)
	if !ok {
		t.Fatal("inconsistent quotient")
	}
	pr, err := PartitionSAT(context.Background(), full, is, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.NewSignals < 1 || len(full.StateSigs) != pr.NewSignals {
		t.Fatalf("%d signals inserted, %d appended to the full graph", pr.NewSignals, len(full.StateSigs))
	}
	// Each appended signal is named and inherits, in every state, the
	// phase solved for its cover class (Figure 5's propagate()): states
	// of one class agree, and the classes' phases form a column of the
	// modular graph.
	for k, ss := range full.StateSigs {
		if ss.Name != fmt.Sprintf("csc%d", k) || len(ss.Phases) != full.NumStates() {
			t.Fatalf("signal %d: name %q, %d phases for %d states", k, ss.Name, len(ss.Phases), full.NumStates())
		}
		col := make([]sg.Phase, merged.Graph.NumStates())
		seen := make([]bool, len(col))
		for s, c := range merged.Cover {
			if seen[c] && col[c] != ss.Phases[s] {
				t.Fatalf("signal %s: states of cover class %d hold %v and %v", ss.Name, c, col[c], ss.Phases[s])
			}
			col[c], seen[c] = ss.Phases[s], true
		}
		for _, e := range merged.Graph.Edges {
			if !sg.EdgeCompatible(col[e.From], col[e.To]) {
				t.Fatalf("signal %s: class phases %v→%v break the modular edge %d→%d", ss.Name, col[e.From], col[e.To], e.From, e.To)
			}
		}
	}
	// Propagated phases must respect the edge relation on the FULL graph
	// (Figure 5's propagation through the cover relation).
	if bad := full.CheckPhaseConsistency(); len(bad) != 0 {
		t.Fatalf("propagated phases inconsistent: %v", bad)
	}
	// The output's conflicts are gone on the full graph.
	n, _ := outputStats(full, o)
	if n != 0 {
		t.Fatalf("%d output conflicts remain after partition_sat", n)
	}
}

// TestOracleSuite is the strongest end-to-end check: for every
// reconstructed benchmark, the synthesized next-state functions must
// agree with the implied values of every reachable state of the final
// expanded state graph. This is precisely the correctness condition for
// speed-independent implementation.
func TestOracleSuite(t *testing.T) {
	for _, name := range bench.Available() {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Synthesize(context.Background(), spec, Options{})
			if err != nil {
				t.Fatalf("synthesize: %v", err)
			}
			// The pipeline streams the expansion and keeps only its
			// column view; the edge-consistency check below needs the
			// edge structure, so rebuild it from the final graph. First
			// pin that the rebuilt graph is the one the logic was derived
			// from, or the checks would validate a different graph.
			ex, err := res.Full.Expand()
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			v := res.View
			if !reflect.DeepEqual(ex.Base, v.Base) || ex.NumStates() != v.NumStates() {
				t.Fatalf("Full.Expand() has %d states over %d signals, View has %d over %d",
					ex.NumStates(), len(ex.Base), v.NumStates(), len(v.Base))
			}
			for s := range ex.States {
				if ex.States[s].Code != v.Codes[s] || ex.Origin[s] != v.Origin[s] {
					t.Fatalf("state %d: Full.Expand() code %b origin %d, View code %b origin %d",
						s, ex.States[s].Code, ex.Origin[s], v.Codes[s], v.Origin[s])
				}
			}
			for _, fn := range res.Functions {
				sigIdx, ok := ex.SignalIndex(fn.Name)
				if !ok {
					t.Fatalf("function %q names no signal", fn.Name)
				}
				varIdx := make([]int, len(fn.Vars))
				for i, v := range fn.Vars {
					vi, ok := ex.SignalIndex(v)
					if !ok {
						t.Fatalf("support var %q missing", v)
					}
					varIdx[i] = vi
				}
				for s := range ex.States {
					var m uint64
					for i, vi := range varIdx {
						if ex.States[s].Code&(1<<vi) != 0 {
							m |= 1 << i
						}
					}
					want := ex.ImpliedValue(s, sigIdx) == 1
					if got := fn.Cover.Eval(m); got != want {
						t.Fatalf("%s: state %d code %b: function %v, implied %v",
							fn.Name, s, ex.States[s].Code, got, want)
					}
				}
			}
			// Every expanded state still has a consistent binary code
			// (one-signal edges only flip their own bit).
			for _, e := range ex.Edges {
				d := ex.States[e.From].Code ^ ex.States[e.To].Code
				if d == 0 || d&(d-1) != 0 {
					t.Fatalf("edge flips %b", d)
				}
				if e.Sig < 0 || d != 1<<e.Sig {
					t.Fatalf("edge of %d flips bit pattern %b", e.Sig, d)
				}
			}
		})
	}
}

// TestSynthesizeDeterministic: repeated runs produce identical circuits.
func TestSynthesizeDeterministic(t *testing.T) {
	spec, err := bench.Load("sbuf-read-ctl")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Synthesize(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		spec2, _ := bench.Load("sbuf-read-ctl")
		b, err := Synthesize(context.Background(), spec2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Area != b.Area || a.FinalStates != b.FinalStates || a.Inserted != b.Inserted {
			t.Fatalf("nondeterministic synthesis: %d/%d/%d vs %d/%d/%d",
				a.Area, a.FinalStates, a.Inserted, b.Area, b.FinalStates, b.Inserted)
		}
		for j := range a.Functions {
			if a.Functions[j].String() != b.Functions[j].String() {
				t.Fatalf("function %d differs between runs", j)
			}
		}
	}
}

// TestSynthesizeFullSupportAblation pins the support-restriction
// ablation on every Table-1 row: the area with the paper's restricted
// logic supports and with the fullSupport hook. Two rows move, in
// opposite directions, for totals of 921 and 920.
func TestSynthesizeFullSupportAblation(t *testing.T) {
	pins := []struct {
		name             string
		restricted, full int
	}{
		{"mr0", 186, 186}, {"mr1", 50, 50}, {"mmu0", 37, 37}, {"mmu1", 36, 36},
		{"sbuf-ram-write", 57, 55}, {"vbe4a", 42, 42}, {"nak-pa", 59, 59},
		{"pe-rcv-ifc-fc", 76, 76}, {"ram-read-sbuf", 62, 63}, {"alex-nonfc", 43, 43},
		{"sbuf-send-pkt2", 39, 39}, {"sbuf-send-ctl", 21, 21}, {"atod", 22, 22},
		{"pa", 37, 37}, {"alloc-outbound", 20, 20}, {"wrdata", 21, 21},
		{"fifo", 29, 29}, {"sbuf-read-ctl", 25, 25}, {"nouse", 23, 23},
		{"vbe-ex2", 7, 7}, {"nousc-ser", 14, 14}, {"sendr-done", 8, 8}, {"vbe-ex1", 7, 7},
	}
	if names := bench.Names(); len(pins) != len(names) {
		t.Fatalf("%d pinned rows for %d Table-1 rows", len(pins), len(names))
	}
	area := func(name string, opt Options) int {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(context.Background(), spec, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res.Area
	}
	totalR, totalF := 0, 0
	for _, p := range pins {
		r, f := area(p.name, Options{}), area(p.name, Options{fullSupport: true})
		if r != p.restricted || f != p.full {
			t.Errorf("%s: area %d restricted, %d full support; pinned %d and %d", p.name, r, f, p.restricted, p.full)
		}
		// The support restriction is one of the paper's area mechanisms;
		// it must never hurt here.
		if p.name == "sbuf-read-ctl" && r > f {
			t.Errorf("sbuf-read-ctl: restricted support area %d > full support %d", r, f)
		}
		totalR += r
		totalF += f
	}
	if totalR != 921 || totalF != 920 {
		t.Errorf("total area %d restricted, %d full support; want 921 and 920", totalR, totalF)
	}
}
