package asyncsyn

import (
	"errors"
	"strings"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/logic"
)

const twoPulseSrc = `
.model tp
.inputs a
.outputs b
.graph
a+ b+
b+ b-
b- a-
a- b+/2
b+/2 b-/2
b-/2 a+
.marking { <b-/2,a+> }
.end
`

func TestParseSTGAndAccessors(t *testing.T) {
	g, err := ParseSTGString(twoPulseSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "tp" {
		t.Errorf("Name = %q", g.Name())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	sigs := g.Signals()
	if len(sigs) != 2 || sigs[0] != "a" || sigs[1] != "b" {
		t.Errorf("Signals = %v", sigs)
	}
	// Format output must reparse.
	if _, err := ParseSTGString(g.Format()); err != nil {
		t.Errorf("Format not reparsable: %v", err)
	}
	if _, err := ParseSTG(strings.NewReader(twoPulseSrc)); err != nil {
		t.Errorf("ParseSTG reader: %v", err)
	}
	if _, err := ParseSTGString(".model x\n"); err == nil {
		t.Errorf("bad source accepted")
	}
}

func TestBuilderFacade(t *testing.T) {
	g, err := NewSTG("latch").
		Inputs("r").Outputs("a").Internals("x").
		Cycle("r+", "x+", "a+", "r-", "x-", "a-").
		Token("a-", "r+").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.InitialStates != 6 {
		t.Errorf("states = %d", c.InitialStates)
	}
	if _, err := NewSTG("bad").Inputs("r").Arc("r+", "zzz+").Build(); err == nil {
		t.Errorf("builder accepted undeclared signal")
	}
	// Place-based choice through the facade.
	g2, err := NewSTG("choice").
		Inputs("c1", "c2").Outputs("r").
		Place("sel", []string{"r+"}, []string{"c1+", "c2+"}).
		Chain("c1+", "c1-").
		Chain("c2+", "c2-").
		Place("mrg", []string{"c1-", "c2-"}, []string{"r-"}).
		Arc("r-", "r+").
		TokenAt("mrg").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	_ = g2
}

func TestSynthesizeFunctionAPI(t *testing.T) {
	g, _ := ParseSTGString(twoPulseSrc)
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Method != Modular || c.Method.String() != "modular" {
		t.Errorf("method %v", c.Method)
	}
	fb, ok := c.Function("b")
	if !ok {
		t.Fatalf("no function for b; have %v", c.Functions)
	}
	if fb.Literals() <= 0 {
		t.Errorf("literals = %d", fb.Literals())
	}
	if !strings.HasPrefix(fb.String(), "b = ") {
		t.Errorf("String = %q", fb.String())
	}
	if len(fb.Cubes()) == 0 {
		t.Errorf("no cubes")
	}
	if _, ok := c.Function("zzz"); ok {
		t.Errorf("phantom function found")
	}
	// Eval agrees with the SOP across all support assignments.
	n := len(fb.Inputs)
	for m := 0; m < 1<<n; m++ {
		vals := map[string]bool{}
		for i, name := range fb.Inputs {
			vals[name] = m&(1<<i) != 0
		}
		_ = fb.Eval(vals) // must not panic; specific values checked below
	}
	// b is an XNOR of a and the inserted signal in the canonical result;
	// at least check that Eval is not constant.
	var saw [2]bool
	for m := 0; m < 1<<n; m++ {
		vals := map[string]bool{}
		for i, name := range fb.Inputs {
			vals[name] = m&(1<<i) != 0
		}
		if fb.Eval(vals) {
			saw[1] = true
		} else {
			saw[0] = true
		}
	}
	if !saw[0] || !saw[1] {
		t.Errorf("function b is constant")
	}
}

func TestSynthesizeMethodsAgreeOnCorrectness(t *testing.T) {
	for _, m := range []Method{Modular, Direct, Lavagno} {
		g, _ := ParseSTGString(twoPulseSrc)
		c, err := Synthesize(g, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if c.Aborted {
			t.Fatalf("%v aborted", m)
		}
		if c.StateSignals < 1 || c.Area <= 0 || len(c.Functions) < 2 {
			t.Errorf("%v: %+v", m, c)
		}
		if len(c.Formulas) == 0 {
			t.Errorf("%v: no formula stats", m)
		}
	}
}

func TestSynthesizeOptions(t *testing.T) {
	g, _ := ParseSTGString(twoPulseSrc)
	c1, err := Synthesize(g, Options{ExpandXor: true})
	if err != nil || c1.Aborted {
		t.Fatalf("ExpandXor: %v", err)
	}
	g4, _ := ParseSTGString(twoPulseSrc)
	if _, err := Synthesize(g4, Options{MaxStates: 2}); err == nil {
		t.Errorf("state cap ignored")
	}

	// Normalization: the defaults spelled out are the zero option set
	// (one circuit, one options key), and an invalid option set returns
	// no circuit and an ErrParse error before any work.
	fifo, _ := bench.Source("fifo")
	for _, tc := range []struct {
		name string
		opt  Options
		err  string // "" = synthesizes fifo's default circuit
	}{
		{"zero", Options{}, ""},
		{"spelled-out-defaults", Options{Method: Modular, MaxBacktracks: 2000000, MaxStates: 100000, TokenBound: 1}, ""},
		{"unknown-method", Options{Method: Method(42)}, "unknown method"},
		{"negative-backtracks", Options{MaxBacktracks: -1}, "negative MaxBacktracks"},
		{"negative-states", Options{MaxStates: -5}, "negative MaxStates"},
		{"negative-token-bound", Options{TokenBound: -1}, "negative TokenBound"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			norm, nerr := tc.opt.Normalize()
			g, _ := ParseSTGString(fifo)
			c, err := Synthesize(g, tc.opt)
			if tc.err != "" {
				if c != nil || !errors.Is(err, ErrParse) || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("synthesized %v, error %v; want no circuit and an ErrParse %q error", c != nil, err, tc.err)
				}
				if !errors.Is(nerr, ErrParse) {
					t.Fatalf("Normalize: %v, want an ErrParse error", nerr)
				}
				return
			}
			if nerr != nil || norm != (Options{}) {
				t.Fatalf("Normalize = %+v, %v; want the zero option set", norm, nerr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := c.Digest(); d != "a2805642e698" {
				t.Fatalf("fifo digest %s, want a2805642e698", d)
			}
		})
	}
}

func TestModuleReports(t *testing.T) {
	src, _ := bench.Source("sbuf-read-ctl")
	g, _ := ParseSTGString(src)
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Modules) == 0 {
		t.Fatalf("no module reports")
	}
	for _, m := range c.Modules {
		if m.Output == "" || m.MergedStates <= 0 {
			t.Errorf("bad module report %+v", m)
		}
		if m.MergedStates > c.InitialStates {
			t.Errorf("module larger than the full graph: %+v", m)
		}
	}
}

// TestDirectSuite runs the direct whole-graph method over a mid-size
// subset of the suite: every row must complete without a backtrack
// abort and insert at least one state signal.
func TestDirectSuite(t *testing.T) {
	for _, name := range []string{"vbe-ex1", "vbe-ex2", "wrdata", "fifo", "pa", "atod", "nouse", "sbuf-send-ctl"} {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := ParseSTGString(src)
		c, err := Synthesize(g, Options{Method: Direct})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c.Aborted || c.StateSignals < 1 {
			t.Errorf("%s: direct method failed: %+v", name, c)
		}
	}
}

func TestLavagnoSuite(t *testing.T) {
	for _, name := range []string{"vbe-ex1", "vbe-ex2", "wrdata", "fifo", "atod"} {
		src, _ := bench.Source(name)
		g, _ := ParseSTGString(src)
		c, err := Synthesize(g, Options{Method: Lavagno})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c.Aborted || c.StateSignals < 1 {
			t.Errorf("%s: lavagno baseline failed: %+v", name, c)
		}
	}
}

// TestLavagnoExpandXor: a Lavagno-style run solves every formula, in
// its csc stage as in expansion refinement, in the run's encoding. The
// paper-style expansion has no auxiliary variables, so each formula has
// exactly the 2·m·n state variables of m signals over the n initial
// states; the default Tseitin encoding adds separation variables.
func TestLavagnoExpandXor(t *testing.T) {
	for _, name := range []string{"fifo", "nak-pa"} {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ParseSTGString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Synthesize(g, Options{Method: Lavagno, ExpandXor: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Formulas) == 0 {
			t.Fatalf("%s: no formulas recorded", name)
		}
		for i, f := range c.Formulas {
			if want := 2 * f.Signals * c.InitialStates; f.Vars != want {
				t.Errorf("%s: formula %d of %d has %d variables, want the %d state variables alone", name, i, len(c.Formulas), f.Vars, want)
			}
		}
	}
}

func TestVerifyAPI(t *testing.T) {
	for _, name := range []string{"fifo", "sbuf-read-ctl", "vbe-ex1"} {
		src, _ := bench.Source(name)
		g, _ := ParseSTGString(src)
		c, err := Synthesize(g, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bad := c.Verify(g, 100000, 0); len(bad) != 0 {
			t.Errorf("%s: conformance violations: %v", name, bad)
		}
	}
}

func TestVerifyCatchesBrokenCircuit(t *testing.T) {
	src, _ := bench.Source("fifo")
	g, _ := ParseSTGString(src)
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one function: complement its cover's first cube variable.
	for i := range c.Functions {
		if c.Functions[i].Name != "ai" {
			continue
		}
		cover := c.Functions[i].cover
		if len(cover) > 0 && cover[0].N() > 0 {
			// Flip the polarity of the first specified literal.
		flip:
			for v := 0; v < cover[0].N(); v++ {
				switch cover[0].Var(v) {
				case logic.VFalse:
					cover[0].SetVar(v, logic.VTrue)
				case logic.VTrue:
					cover[0].SetVar(v, logic.VFalse)
				default:
					continue
				}
				break flip
			}
		}
	}
	if bad := c.Verify(g, 100000, 0); len(bad) == 0 {
		t.Fatal("Verify passed a circuit whose ai cover has a flipped literal")
	}
}

func TestPLAOutput(t *testing.T) {
	src, _ := bench.Source("vbe-ex1")
	g, _ := ParseSTGString(src)
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := c.Functions[0]
	pla := f.PLA()
	for _, want := range []string{".i ", ".o 1", ".ilb", ".ob " + f.Name, ".p ", ".e"} {
		if !strings.Contains(pla, want) {
			t.Errorf("PLA output missing %q:\n%s", want, pla)
		}
	}
	rows := 0
	for _, line := range strings.Split(pla, "\n") {
		if line != "" && (line[0] == '-' || line[0] == '0' || line[0] == '1') {
			rows++
		}
	}
	if rows != len(f.Cubes()) {
		t.Errorf("PLA row count mismatch:\n%s", pla)
	}
}
