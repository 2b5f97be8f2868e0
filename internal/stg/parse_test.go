package stg

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

const simpleSrc = `
# four-phase handshake
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
`

func TestParseSimple(t *testing.T) {
	g, err := ParseString(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "hs" {
		t.Errorf("name %q", g.Name)
	}
	st := g.Stat()
	if st.Inputs != 1 || st.Outputs != 1 || st.Transitions != 4 || st.Places != 4 {
		t.Errorf("stats %+v", st)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
	// Initial marking: exactly one token, on the place of ack- → req+.
	total := 0
	for _, k := range g.Net.Initial {
		total += int(k)
	}
	if total != 1 {
		t.Errorf("initial tokens = %d", total)
	}
	reqPlus, _ := g.Net.TransitionByLabel("req+")
	if !g.Net.Enabled(g.Net.Initial, reqPlus) {
		t.Errorf("req+ must be initially enabled")
	}
}

func TestParseInstancesAndKinds(t *testing.T) {
	src := `
.model inst
.inputs a
.outputs b
.internal c
.graph
a+ b+
b+ c+
c+ a-
a- b-
b- c-
c- a+/2
a+/2 a-/2
a-/2 a+
.marking { <a-/2,a+> }
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := g.SignalIndex("c")
	if !ok || g.Signals[ci].Kind != Internal {
		t.Fatalf("internal signal c missing")
	}
	a2, ok := g.Net.TransitionByLabel("a+/2")
	if !ok {
		t.Fatalf("instance transition a+/2 missing")
	}
	l := g.Labels[a2]
	if l.Dir != Rising || l.Instance != 2 || g.Signals[l.Sig].Name != "a" {
		t.Fatalf("label of a+/2 = %+v", l)
	}
	if got := g.TransitionName(a2); got != "a+/2" {
		t.Fatalf("TransitionName = %q", got)
	}
	if ts := g.TransitionsOf(l.Sig); len(ts) != 4 {
		t.Fatalf("signal a has %d transitions, want 4", len(ts))
	}
}

func TestParseExplicitPlacesAndChoice(t *testing.T) {
	src := `
.model choice
.inputs a b
.outputs r
.graph
r+ P
P a+ b+
a+ a-
b+ b-
a- M
b- M
M r-
r- r+
.marking { <r-,r+> }
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := g.Net.PlaceByName("P")
	if !ok {
		t.Fatalf("place P missing")
	}
	if len(g.Net.Places[p].Post) != 2 {
		t.Fatalf("choice place P has %d fanouts, want 2", len(g.Net.Places[p].Post))
	}
	m, _ := g.Net.PlaceByName("M")
	if len(g.Net.Places[m].Pre) != 2 {
		t.Fatalf("merge place M has %d fanins, want 2", len(g.Net.Places[m].Pre))
	}
}

func TestParseDummy(t *testing.T) {
	src := `
.model dum
.inputs a
.outputs b
.dummy e0
.graph
a+ e0
e0 b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stat().Dummies != 1 {
		t.Fatalf("dummy count %d", g.Stat().Dummies)
	}
	e0, _ := g.Net.TransitionByLabel("e0")
	if !g.Labels[e0].IsDummy() {
		t.Fatalf("e0 not labelled dummy")
	}
}

func TestParseMarkingForms(t *testing.T) {
	src := `
.model marks
.inputs a
.outputs b
.graph
a+ p0
p0 b+
b+ a-
a- b-
b- a+
.marking { p0=2 <b-,a+> }
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := g.Net.PlaceByName("p0")
	if g.Net.Initial[p0] != 2 {
		t.Fatalf("p0 tokens = %d, want 2", g.Net.Initial[p0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing end", ".model x\n.inputs a\n.graph\na+ a-\n", "missing .end"},
		{"undeclared", ".model x\n.inputs a\n.graph\na+ b+\n.end\n", "undeclared"},
		{"dup signal", ".model x\n.inputs a\n.outputs a\n.graph\na+ a-\n.end\n", "twice"},
		{"place arc", ".model x\n.inputs a\n.graph\np q\na+ a-\n.end\n", "two places"},
		{"bad marking", ".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { nowhere }\n.end\n", "unknown place"},
		{"bad implicit", ".model x\n.inputs a\n.graph\na+ a-\na- a+\n.marking { <a-,b+> }\n.end\n", "unknown transitions"},
		{"token outside graph", ".model x\nfoo bar\n.end\n", "outside .graph"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("want error containing %q, got %v", c.want, err)
			}
		})
	}
	t.Run("line over 1 MiB", func(t *testing.T) {
		src := strings.Replace(simpleSrc, "# four-phase handshake", "# "+strings.Repeat("x", 1<<20), 1)
		if _, err := ParseString(src); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("want bufio.ErrTooLong, got %v", err)
		}
	})
}

func TestImmediateInputs(t *testing.T) {
	src := `
.model trig
.inputs a b
.outputs c d
.graph
a+ c+
b+ c+
c+ d+
d+ a- b-
a- c-
b- c-
c- d-
d- a+ b+
.marking { <d-,a+> <d-,b+> }
.end
`
	g, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := g.SignalIndex("c")
	di, _ := g.SignalIndex("d")
	ai, _ := g.SignalIndex("a")
	bi, _ := g.SignalIndex("b")
	got := g.ImmediateInputs(ci)
	if len(got) != 2 || got[0] != ai || got[1] != bi {
		t.Fatalf("triggers of c = %v, want [a b]", got)
	}
	got = g.ImmediateInputs(di)
	if len(got) != 1 || got[0] != ci {
		t.Fatalf("triggers of d = %v, want [c]", got)
	}
}

func TestSplitEdge(t *testing.T) {
	cases := []struct {
		tok  string
		sig  string
		dir  Dir
		inst int
		ok   bool
	}{
		{"a+", "a", Rising, 0, true},
		{"req-", "req", Falling, 0, true},
		{"x~", "x", Toggle, 0, true},
		{"ack+/3", "ack", Rising, 3, true},
		{"p0", "", 0, 0, false},
		{"+", "", 0, 0, false},
		{"a+/x", "", 0, 0, false},
	}
	for _, c := range cases {
		sig, dir, inst, ok := splitEdge(c.tok)
		if ok != c.ok || (ok && (sig != c.sig || dir != c.dir || inst != c.inst)) {
			t.Errorf("splitEdge(%q) = %q %v %d %v", c.tok, sig, dir, inst, ok)
		}
	}
}

// TestRoundTrip checks that Format output reparses to a structurally
// identical STG for a variety of constructs.
func TestRoundTrip(t *testing.T) {
	// A 100 KiB comment line: far longer than the scanner's initial
	// buffer, within the 1 MiB line limit.
	longLine := strings.Replace(simpleSrc, "# four-phase handshake", "# "+strings.Repeat("x", 100<<10), 1)
	for _, src := range []string{simpleSrc, longLine, `
.model rt
.inputs a b
.outputs c
.graph
a+ c+ p1
b+ c+
p1 b+
c+ a- b-
a- c-
b- c-
c- a+
a+ b+
.marking { <c-,a+> }
.end
`} {
		g1, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		out := Format(g1)
		g2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, out)
		}
		if len(g2.Signals) != len(g1.Signals) ||
			len(g2.Net.Transitions) != len(g1.Net.Transitions) ||
			len(g2.Net.Places) != len(g1.Net.Places) {
			t.Fatalf("round trip changed structure:\n%s", out)
		}
		// Same reachable behaviour: equal state counts.
		r1, err1 := g1.Net.Reach(1, 0)
		r2, err2 := g2.Net.Reach(1, 0)
		if err1 != nil || err2 != nil {
			t.Fatalf("reach: %v %v", err1, err2)
		}
		if r1.NumStates() != r2.NumStates() {
			t.Fatalf("round trip changed reachability: %d vs %d states", r1.NumStates(), r2.NumStates())
		}
	}
}

func TestBuilderEquivalentToParser(t *testing.T) {
	built, err := NewBuilder("hs").
		Inputs("req").Outputs("ack").
		Cycle("req+", "ack+", "req-", "ack-").
		Token("ack-", "req+").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseString(simpleSrc)
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := built.Net.Reach(1, 0)
	rp, _ := parsed.Net.Reach(1, 0)
	if rb.NumStates() != rp.NumStates() {
		t.Fatalf("builder graph differs: %d vs %d states", rb.NumStates(), rp.NumStates())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewBuilder("x").Inputs("a").Arc("a+", "b+").Build(); err == nil {
		t.Fatalf("undeclared signal must fail")
	}
	if _, err := NewBuilder("x").Inputs("a").Arc("junk", "a+").Build(); err == nil {
		t.Fatalf("bad edge name must fail")
	}
	if _, err := NewBuilder("x").Inputs("a", "a").Build(); err == nil {
		t.Fatalf("duplicate signal must fail")
	}
	if _, err := NewBuilder("x").Inputs("a").Chain("a+", "a-").Token("a-", "a+").Build(); err == nil {
		t.Fatalf("marking a missing arc must fail")
	}
}

func TestBuilderPlaces(t *testing.T) {
	g, err := NewBuilder("ch").
		Inputs("a", "b").Outputs("r").
		Place("P", []string{"r+"}, []string{"a+", "b+"}).
		Chain("a+", "a-").
		Chain("b+", "b-").
		Place("M", []string{"a-", "b-"}, []string{"r-"}).
		Arc("r-", "r+").
		Token("r-", "r+").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	r, err := g.Net.Reach(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// idle, post-r+ (choice), mid-a, mid-b, merged = 5 markings.
	if r.NumStates() != 5 {
		t.Fatalf("choice cycle has %d states, want 5", r.NumStates())
	}
}
