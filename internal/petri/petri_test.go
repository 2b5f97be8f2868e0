package petri

import (
	"strings"
	"testing"
)

// chain builds p0 → t0 → p1 → t1 → ... → p(n-1) → t(n-1) → p0 with a
// token on p0.
func chain(t *testing.T, n int) *Net {
	t.Helper()
	net := New("chain")
	ps := make([]PlaceID, n)
	ts := make([]TransID, n)
	for i := 0; i < n; i++ {
		ps[i] = net.AddPlace("")
		ts[i] = net.AddTransition(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		net.ConnectPT(ps[i], ts[i])
		net.ConnectTP(ts[i], ps[(i+1)%n])
	}
	net.Initial = net.NewMarking()
	net.Initial[ps[0]] = 1
	return net
}

func TestEnabledAndFire(t *testing.T) {
	net := chain(t, 3)
	m := net.Initial
	if !net.Enabled(m, 0) {
		t.Fatalf("t0 should be enabled initially")
	}
	if net.Enabled(m, 1) {
		t.Fatalf("t1 should be disabled initially")
	}
	m2 := net.Fire(m, 0)
	if m2[0] != 0 || m2[1] != 1 {
		t.Fatalf("firing t0: got marking %v", m2)
	}
	if m[0] != 1 {
		t.Fatalf("Fire must not mutate the input marking")
	}
	if !net.Enabled(m2, 1) {
		t.Fatalf("t1 should be enabled after t0")
	}
}

func TestFireDisabledPanics(t *testing.T) {
	net := chain(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("firing a disabled transition must panic")
		}
	}()
	net.Fire(net.Initial, 1)
}

func TestEnabledSetOrder(t *testing.T) {
	net := New("fork")
	p := net.AddPlace("p")
	a := net.AddTransition("a")
	b := net.AddTransition("b")
	net.ConnectPT(p, a)
	net.ConnectPT(p, b)
	pa := net.AddPlace("pa")
	pb := net.AddPlace("pb")
	net.ConnectTP(a, pa)
	net.ConnectTP(b, pb)
	net.Initial = net.NewMarking()
	net.Initial[p] = 1
	got := net.EnabledSet(net.Initial)
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("enabled set = %v, want [a b] in id order", got)
	}
}

func TestReachCycle(t *testing.T) {
	net := chain(t, 5)
	r, err := net.Reach(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumStates() != 5 {
		t.Fatalf("cycle of 5 places: %d states, want 5", r.NumStates())
	}
	if len(r.Edges) != 5 {
		t.Fatalf("%d edges, want 5", len(r.Edges))
	}
	if dead := net.Live(r); len(dead) != 0 {
		t.Fatalf("dead transitions in a live cycle: %v", dead)
	}
}

func TestReachDiamond(t *testing.T) {
	// fork → two concurrent transitions → join: 4 states.
	net := New("diamond")
	pin := net.AddPlace("in")
	fork := net.AddTransition("fork")
	net.ConnectPT(pin, fork)
	var joinIns []PlaceID
	for i := 0; i < 2; i++ {
		pm := net.AddPlace("")
		tm := net.AddTransition(string(rune('x' + i)))
		pe := net.AddPlace("")
		net.ConnectTP(fork, pm)
		net.ConnectPT(pm, tm)
		net.ConnectTP(tm, pe)
		joinIns = append(joinIns, pe)
	}
	join := net.AddTransition("join")
	for _, p := range joinIns {
		net.ConnectPT(p, join)
	}
	net.ConnectTP(join, pin)
	net.Initial = net.NewMarking()
	net.Initial[pin] = 1
	r, err := net.Reach(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// pre-fork, post-fork, x done, y done, both done = 5.
	if r.NumStates() != 5 {
		t.Fatalf("diamond: %d states, want 5", r.NumStates())
	}
}

func TestReachUnbounded(t *testing.T) {
	// A transition that only produces tokens.
	net := New("unbounded")
	p := net.AddPlace("p")
	q := net.AddPlace("q")
	tr := net.AddTransition("t")
	net.ConnectPT(p, tr)
	net.ConnectTP(tr, p)
	net.ConnectTP(tr, q) // q grows forever
	net.Initial = net.NewMarking()
	net.Initial[p] = 1
	_, err := net.Reach(3, 0)
	ub, ok := err.(ErrUnbounded)
	if !ok {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
	if ub.Place != "q" || ub.Bound != 3 {
		t.Fatalf("unexpected unbounded report: %+v", ub)
	}
	if safe, err := net.IsSafe(0); err != nil || safe {
		t.Fatalf("IsSafe = %v, %v; want false, nil", safe, err)
	}
}

func TestReachStateCap(t *testing.T) {
	net := chain(t, 10)
	if _, err := net.Reach(1, 3); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want state-cap error, got %v", err)
	}
}

func TestReachBadInitial(t *testing.T) {
	net := chain(t, 3)
	net.Initial = Marking{1} // wrong length
	if _, err := net.Reach(1, 0); err == nil {
		t.Fatalf("want error for short initial marking")
	}
}

func TestMultiTokenMarking(t *testing.T) {
	// 2-bounded place: two tokens allow two firings before exhaustion.
	net := New("2tok")
	p := net.AddPlace("p")
	q := net.AddPlace("q")
	tr := net.AddTransition("t")
	net.ConnectPT(p, tr)
	net.ConnectTP(tr, q)
	back := net.AddTransition("u")
	net.ConnectPT(q, back)
	net.ConnectTP(back, p)
	net.Initial = net.NewMarking()
	net.Initial[p] = 2
	r, err := net.Reach(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// (2,0), (1,1), (0,2) = 3 states.
	if r.NumStates() != 3 {
		t.Fatalf("%d states, want 3", r.NumStates())
	}
}

func TestValidate(t *testing.T) {
	net := New("bad")
	net.AddPlace("p")
	net.AddPlace("p") // duplicate name
	if err := net.Validate(); err == nil {
		t.Fatalf("duplicate place names must fail validation")
	}

	net2 := New("bad2")
	p := net2.AddPlace("p")
	tr := net2.AddTransition("t")
	net2.ConnectPT(p, tr) // no fanout
	if err := net2.Validate(); err == nil || !strings.Contains(err.Error(), "fanout") {
		t.Fatalf("transition without fanout must fail validation, got %v", err)
	}
}

func TestLiveReportsDeadTransitions(t *testing.T) {
	net := chain(t, 3)
	// Add an unconnected-but-valid transition fed by an unmarked place.
	p := net.AddPlace("dead-in")
	d := net.AddTransition("zz")
	net.ConnectPT(p, d)
	pd := net.AddPlace("dead-out")
	net.ConnectTP(d, pd)
	net.Initial = append(net.Initial, 0, 0)
	r, err := net.Reach(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	dead := net.Live(r)
	if len(dead) != 1 || dead[0] != "zz" {
		t.Fatalf("dead = %v, want [zz]", dead)
	}
}

func TestMarkingKeyAndEqual(t *testing.T) {
	a := Marking{0, 1, 2}
	b := Marking{0, 1, 2}
	c := Marking{0, 1, 3}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Fatalf("marking keys broken")
	}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Marking{0, 1}) {
		t.Fatalf("marking equality broken")
	}
	d := a.Clone()
	d[0] = 9
	if a[0] == 9 {
		t.Fatalf("Clone must copy")
	}
}

func TestArcHelper(t *testing.T) {
	net := New("arc")
	a := net.AddTransition("a")
	b := net.AddTransition("b")
	p := net.Arc(a, b)
	if !net.Places[p].Implicit {
		t.Fatalf("Arc must create an implicit place")
	}
	if len(net.Transitions[a].Post) != 1 || len(net.Transitions[b].Pre) != 1 {
		t.Fatalf("arc wiring wrong")
	}
	if _, ok := net.TransitionByLabel("b"); !ok {
		t.Fatalf("TransitionByLabel failed")
	}
	if _, ok := net.PlaceByName(net.Places[p].Name); !ok {
		t.Fatalf("PlaceByName failed")
	}
}
