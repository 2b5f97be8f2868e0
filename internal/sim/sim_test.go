package sim

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/core"
	"asyncsyn/internal/logic"
	"asyncsyn/internal/metrics"
	"asyncsyn/internal/stg"
)

const handshake = `
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

// buffer gate: ack = req.
func bufferGate(name, input string, inverted bool) Gate {
	c := logic.NewCube(1)
	if inverted {
		c.SetVar(0, logic.VFalse)
	} else {
		c.SetVar(0, logic.VTrue)
	}
	return Gate{Name: name, Inputs: []string{input}, Cover: logic.Cover{c}}
}

func TestCorrectBufferConforms(t *testing.T) {
	spec, err := stg.ParseString(handshake)
	if err != nil {
		t.Fatal(err)
	}
	c := &Circuit{Gates: []Gate{bufferGate("ack", "req", false)}}
	v := Run(spec, c, map[string]bool{"req": false, "ack": false}, Options{})
	if len(v) != 0 {
		t.Fatalf("correct circuit flagged: %v", v)
	}
}

func TestInvertedBufferViolates(t *testing.T) {
	spec, err := stg.ParseString(handshake)
	if err != nil {
		t.Fatal(err)
	}
	// ack = req': immediately excited at reset, fires ack+ the
	// specification does not enable.
	c := &Circuit{Gates: []Gate{bufferGate("ack", "req", true)}}
	v := Run(spec, c, map[string]bool{"req": false, "ack": false}, Options{})
	if len(v) == 0 {
		t.Fatalf("inverted circuit not flagged")
	}
	if v[0].Kind != "unexpected-output" || v[0].Signal != "ack" {
		t.Fatalf("violation = %v", v[0])
	}
	if v[0].String() == "" {
		t.Fatalf("empty violation description")
	}
}

func TestRandomWalkAgreesWithExhaustive(t *testing.T) {
	spec, _ := stg.ParseString(handshake)
	good := &Circuit{Gates: []Gate{bufferGate("ack", "req", false)}}
	if v := Run(spec, good, map[string]bool{}, Options{RandomWalks: 20, RandomSteps: 100, Seed: 5}); len(v) != 0 {
		t.Fatalf("random walk flagged a correct circuit: %v", v)
	}
	bad := &Circuit{Gates: []Gate{bufferGate("ack", "req", true)}}
	if v := Run(spec, bad, map[string]bool{}, Options{RandomWalks: 5, RandomSteps: 50, Seed: 5}); len(v) == 0 {
		t.Fatalf("random walk missed the broken circuit")
	}
}

// runScalar is Run with exhaustive exploration forced onto the
// depth-first scalar walker, which Run itself takes only for products
// wider than 64 signals.
func runScalar(spec *stg.G, c *Circuit, levels map[string]bool, opt Options) []Violation {
	if opt.MaxDepth == 0 {
		opt.MaxDepth = 20000
	}
	r, err := newRunner(spec, c)
	if err != nil {
		return []Violation{{Kind: "setup", Signal: err.Error()}}
	}
	r.marking = spec.Net.Initial.Clone()
	r.initLevels(levels)
	return canonicalize(r.exhaustive(opt))
}

// TestBitsetMatchesScalar pins the bit-sliced breadth-first runner to
// the scalar depth-first walker: on conforming circuits both return
// nothing, and on broken circuits both report the same canonical
// violation at the same product state.
func TestBitsetMatchesScalar(t *testing.T) {
	spec, err := stg.ParseString(handshake)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		circuit *Circuit
	}{
		{"conforming", &Circuit{Gates: []Gate{bufferGate("ack", "req", false)}}},
		{"inverted", &Circuit{Gates: []Gate{bufferGate("ack", "req", true)}}},
		// Empty cover: ack never fires, the loop deadlocks after req+.
		{"stuck", &Circuit{Gates: []Gate{{Name: "ack", Inputs: []string{"req"}, Cover: logic.Cover{}}}}},
	}
	levels := map[string]bool{"req": false, "ack": false}
	for _, tc := range cases {
		bit := Run(spec, tc.circuit, levels, Options{})
		sca := runScalar(spec, tc.circuit, levels, Options{})
		if !reflect.DeepEqual(bit, sca) {
			t.Errorf("%s: bitset %v != scalar %v", tc.name, bit, sca)
		}
	}
}

// TestBitsetMatchesScalarSynthesized runs both exhaustive runners over
// synthesized benchmark circuits (state signals included) and requires
// identical verdicts.
func TestBitsetMatchesScalarSynthesized(t *testing.T) {
	for _, name := range []string{"vbe-ex1", "wrdata", "nousc-ser", "sbuf-read-ctl"} {
		spec, err := bench.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(context.Background(), spec, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c, levels := circuitOf(res)
		bit := Run(spec, c, levels, Options{MaxDepth: 50000})
		sca := runScalar(spec, c, levels, Options{MaxDepth: 50000})
		if !reflect.DeepEqual(bit, sca) {
			t.Errorf("%s: bitset %v != scalar %v", name, bit, sca)
		}
	}
}

// TestTruncatedRunReports pins that an exhaustive run cut short by
// MaxDepth does not pass: a conforming circuit whose closed-loop product
// is larger than MaxDepth must get one "truncated" violation, with the
// explored count at MaxDepth and more states reached, from both the
// bit-sliced runner and the scalar walker.
func TestTruncatedRunReports(t *testing.T) {
	spec, err := bench.Load("vbe-ex1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(context.Background(), spec, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, levels := circuitOf(res)
	if v := Run(spec, c, levels, Options{MaxDepth: 50000}); len(v) != 0 {
		t.Fatalf("full run flags the circuit: %v", v)
	}
	const maxDepth = 5
	for _, run := range []struct {
		name string
		fn   func(*stg.G, *Circuit, map[string]bool, Options) []Violation
	}{{"bitset", Run}, {"scalar", runScalar}} {
		v := run.fn(spec, c, levels, Options{MaxDepth: maxDepth})
		if len(v) != 1 || v[0].Kind != "truncated" {
			t.Fatalf("%s: %v, want one truncated violation", run.name, v)
		}
		if v[0].Explored != maxDepth || v[0].Reached <= maxDepth {
			t.Fatalf("%s: explored %d of %d reached states, want %d of more", run.name, v[0].Explored, v[0].Reached, maxDepth)
		}
		if !strings.Contains(v[0].String(), "truncated") {
			t.Fatalf("%s: description %q does not say truncated", run.name, v[0].String())
		}
	}
}

// TestSeededWalksDeterministic pins the Monte-Carlo runner's
// determinism: the same seed replays the same trajectories and
// therefore the same violations.
func TestSeededWalksDeterministic(t *testing.T) {
	spec, _ := stg.ParseString(handshake)
	bad := &Circuit{Gates: []Gate{bufferGate("ack", "req", true)}}
	opt := Options{RandomWalks: 10, RandomSteps: 60, Seed: 42}
	first := Run(spec, bad, map[string]bool{}, opt)
	if len(first) == 0 {
		t.Fatal("seeded walk missed the broken circuit")
	}
	for i := 0; i < 3; i++ {
		if again := Run(spec, bad, map[string]bool{}, opt); !reflect.DeepEqual(first, again) {
			t.Fatalf("seed %d run %d: %v != %v", opt.Seed, i, again, first)
		}
	}
	good := &Circuit{Gates: []Gate{bufferGate("ack", "req", false)}}
	for _, seed := range []int64{0, 1, 99} {
		if v := Run(spec, good, map[string]bool{}, Options{RandomWalks: 10, RandomSteps: 60, Seed: seed}); len(v) != 0 {
			t.Fatalf("seed %d flagged a correct circuit: %v", seed, v)
		}
	}
}

// circuitOf adapts a synthesis result for simulation.
func circuitOf(res *core.Result) (*Circuit, map[string]bool) {
	c := &Circuit{}
	for _, f := range res.Functions {
		c.Gates = append(c.Gates, Gate{Name: f.Name, Inputs: f.Vars, Cover: f.Cover})
	}
	levels := map[string]bool{}
	init := res.View.InitialCode()
	for i, b := range res.View.Base {
		levels[b.Name] = init&(1<<i) != 0
	}
	return c, levels
}

// TestConformanceSuite closed-loop-simulates the synthesized circuit of
// a representative set of benchmarks against its own specification: the
// circuit may never produce an output the STG does not enable, and the
// closed loop may never deadlock.
func TestConformanceSuite(t *testing.T) {
	for _, name := range []string{"vbe-ex1", "vbe-ex2", "wrdata", "fifo", "sendr-done",
		"nousc-ser", "nouse", "atod", "sbuf-read-ctl", "sbuf-send-ctl", "pa", "alloc-outbound"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(context.Background(), spec, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c, levels := circuitOf(res)
			if v := Run(spec, c, levels, Options{MaxDepth: 50000}); len(v) != 0 {
				t.Fatalf("conformance violations: %v", v)
			}
		})
	}
}

// benchCircuit synthesizes a mid-size benchmark once for the simulator
// benchmarks.
func benchCircuit(b *testing.B) (*stg.G, *Circuit, map[string]bool) {
	b.Helper()
	spec, err := bench.Load("sbuf-read-ctl")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(context.Background(), spec, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, levels := circuitOf(res)
	return spec, c, levels
}

// BenchmarkSimBitset measures the 64-lane exhaustive runner on a
// synthesized circuit. It reports the sampled peak heap (peak-B) for
// the cmd/allocheck heap gate alongside allocs/op.
func BenchmarkSimBitset(b *testing.B) {
	spec, c, levels := benchCircuit(b)
	b.ReportAllocs()
	watch := metrics.WatchHeap(2 * time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := Run(spec, c, levels, Options{MaxDepth: 50000}); len(v) != 0 {
			b.Fatalf("violations: %v", v)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(watch.Stop()), "peak-B")
}

// BenchmarkSimScalar is the depth-first scalar walker on the same
// product, for the speedup comparison.
func BenchmarkSimScalar(b *testing.B) {
	spec, c, levels := benchCircuit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := runScalar(spec, c, levels, Options{MaxDepth: 50000}); len(v) != 0 {
			b.Fatalf("violations: %v", v)
		}
	}
}

// TestConformanceRandomBig samples trajectories on the big benchmarks
// where exhaustive product exploration is too large.
func TestConformanceRandomBig(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"mmu1", "nak-pa", "sbuf-ram-write", "mmu0", "mr1", "mr0",
		"vbe4a", "pe-rcv-ifc-fc", "ram-read-sbuf", "alex-nonfc", "sbuf-send-pkt2"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Synthesize(context.Background(), spec, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c, levels := circuitOf(res)
			if v := Run(spec, c, levels, Options{RandomWalks: 30, RandomSteps: 400, Seed: 7}); len(v) != 0 {
				t.Fatalf("conformance violations: %v", v)
			}
		})
	}
}
