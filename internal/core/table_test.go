package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/csc"
	"asyncsyn/internal/sg"
	"asyncsyn/internal/stg"
)

// legacyTableOver is the map-based table extraction that the sort-based
// one in internal/sg replaced, verbatim apart from its name, the package
// qualifiers and a fresh map in place of the pooled one: states are
// projected onto the support vars through codeAt, deduplicated by
// projected code (the first occurrence decides), and classified on/off
// by impliedAt.
func legacyTableOver(base []sg.SignalInfo, sig int, supportMask uint64, n int,
	codeAt func(s int) uint64, impliedAt func(s int) uint8) (*sg.Table, error) {
	var vars []int
	for i := range base {
		if supportMask&(1<<i) != 0 {
			vars = append(vars, i)
		}
	}
	t := &sg.Table{Signal: base[sig].Name}
	for _, v := range vars {
		t.Vars = append(t.Vars, base[v].Name)
	}
	seen := make(map[uint64]uint8) // projected code → implied value
	var onSet, offSet []uint64
	for s := 0; s < n; s++ {
		var code uint64
		c := codeAt(s)
		for bi, v := range vars {
			if c&(1<<v) != 0 {
				code |= 1 << bi
			}
		}
		iv := impliedAt(s)
		if prev, ok := seen[code]; ok {
			if prev != iv {
				return nil, fmt.Errorf("sg: signal %q ill-defined on support (code %b implies both 0 and 1)",
					base[sig].Name, code)
			}
			continue
		}
		seen[code] = iv
		if iv == 1 {
			onSet = append(onSet, code)
		} else {
			offSet = append(offSet, code)
		}
	}
	sort.Slice(onSet, func(i, j int) bool { return onSet[i] < onSet[j] })
	sort.Slice(offSet, func(i, j int) bool { return offSet[i] < offSet[j] })
	t.On, t.Off = onSet, offSet
	return t, nil
}

// logicInputs runs the stages before the logic stage as Synthesize
// does and returns what DeriveLogic reads: the streamed expansion, the
// final state graph, and the per-output supports and pass signals. It
// fails on residual conflicts, whose whole-graph solve it leaves out.
func logicInputs(tb testing.TB, spec *stg.G, opt Options) (*sg.Stream, *sg.Graph, map[int]InputSet, map[int][]string) {
	tb.Helper()
	ctx := context.Background()
	full, err := sg.FromSTG(spec, opt.StateGraph)
	if err != nil {
		tb.Fatal(err)
	}
	supports, passSigs, err := runModules(ctx, full, spec, opt, &Result{Name: spec.Name})
	if err != nil {
		tb.Fatal(err)
	}
	if n := sg.Analyze(full).N(); n > 0 {
		tb.Fatalf("%s: %d residual conflicts: the input needs the residual solve", spec.Name, n)
	}
	csc.Prune(full)
	view, _, _, err := ExpandToCSC(ctx, full, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return view, full, supports, passSigs
}

// TestFunctionTableMatchesLegacy pins the sort-based table extraction
// to the map-based one on the streamed expansion of every Table 1
// benchmark and of the k=3 and k=4 handshakes. It compares the table
// or the error text for every non-input signal under every support of
// DeriveLogic's fallback chain, the signal alone, and the first
// support less each one of its other signals; the last two are mostly
// ill defined, which reaches the error path.
func TestFunctionTableMatchesLegacy(t *testing.T) {
	var specs []*stg.G
	for _, name := range bench.Names() {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, k := range []int{3, 4} {
		spec, err := stg.Handshakes("", k, 2)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	opt := Options{Workers: 1}.withDefaults()
	tables, illDefined := 0, 0
	for _, spec := range specs {
		view, full, supports, passSigs := logicInputs(t, spec, opt)
		for _, sig := range nonInputsOf(view.Base) {
			chain := supportMasks(view, full, sig, supports, passSigs, opt)
			masks := append([]uint64{1 << sig}, chain...)
			for bi := range view.Base {
				if bi != sig && chain[0]&(1<<bi) != 0 {
					masks = append(masks, chain[0]&^(1<<bi))
				}
			}
			for _, m := range masks {
				got, err := view.FunctionTable(sig, m)
				want, werr := legacyTableOver(view.Base, sig, m, view.NumStates(),
					func(s int) uint64 { return view.Codes[s] },
					func(s int) uint8 { return view.ImpliedValue(s, sig) })
				if werr != nil {
					if err == nil || err.Error() != werr.Error() {
						t.Fatalf("%s %s support %b: error %v, legacy %v", spec.Name, view.Base[sig].Name, m, err, werr)
					}
					illDefined++
					continue
				}
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s support %b: table %+v (error %v), legacy %+v", spec.Name, view.Base[sig].Name, m, got, err, want)
				}
				tables++
			}
		}
	}
	if illDefined == 0 {
		t.Fatal("no support was ill defined: the error path went untested")
	}
	t.Logf("%d tables and %d ill-defined supports compared", tables, illDefined)
}
