package asyncsyn_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"asyncsyn"
)

// The canonical two-pulse converter: output b pulses twice per input
// cycle, which violates complete state coding and forces the insertion
// of a state signal.
const twoPulse = `
.model twopulse
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

func ExampleSynthesize() {
	g, err := asyncsyn.ParseSTGString(twoPulse)
	if err != nil {
		log.Fatal(err)
	}
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("signals %d -> %d\n", c.InitialSignals, c.FinalSignals)
	for _, f := range c.Functions {
		fmt.Println(f)
	}
	// Output:
	// signals 2 -> 3
	// b = a' csc0' + a csc0
	// csc0 = b' csc0 + a' b
}

func ExampleNewSTG() {
	g, err := asyncsyn.NewSTG("latch").
		Inputs("r").Outputs("a").
		Cycle("r+", "a+", "r-", "a-").
		Token("a-", "r+").
		Build()
	if err != nil {
		log.Fatal(err)
	}
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Functions[0])
	// Output:
	// a = r
}

func ExampleCircuit_Verify() {
	g, _ := asyncsyn.ParseSTGString(twoPulse)
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	violations := c.Verify(g, 10000, 0)
	fmt.Printf("violations: %d\n", len(violations))
	// Output:
	// violations: 0
}

// Verilog writes each function as one assign of its whole cover: the
// atomic complex gate that Verify simulates and Area counts.
func ExampleCircuit_Verilog() {
	g, _ := asyncsyn.ParseSTGString(twoPulse)
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(c.Verilog())
	// Output:
	// // atomic complex-gate model: each assign is one gate (8 literals)
	// module twopulse(a, b, csc0);
	//   input  a;
	//   output b;
	//   output csc0;
	//
	//   assign b = ~a & ~csc0 | a & csc0;
	//   assign csc0 = ~b & csc0 | ~a & b;
	// endmodule
}

// SynthesizeContext obeys deadlines: an expired context stops the run
// at the next cancellation poll, and the error matches both the
// package's ErrCanceled sentinel and the underlying context error.
func ExampleSynthesizeContext() {
	g, err := asyncsyn.ParseSTGString(twoPulse)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err = asyncsyn.SynthesizeContext(ctx, g, asyncsyn.Options{})
	fmt.Println(errors.Is(err, asyncsyn.ErrCanceled))
	fmt.Println(errors.Is(err, context.DeadlineExceeded))
	// Output:
	// true
	// true
}

// With Options.Metrics attached, Circuit.Stages reports each pipeline
// stage with the counters it advanced, and Circuit.Counters holds the
// whole run's deltas under their stable schema names.
func ExampleSynthesize_stages() {
	g, err := asyncsyn.ParseSTGString(twoPulse)
	if err != nil {
		log.Fatal(err)
	}
	c, err := asyncsyn.Synthesize(g, asyncsyn.Options{Metrics: asyncsyn.NewMetrics()})
	if err != nil {
		log.Fatal(err)
	}
	for _, st := range c.Stages {
		fmt.Println(st.Name)
	}
	fmt.Println("modules:", c.Counters["modules"])
	// Output:
	// elaborate
	// modules
	// residual
	// expand
	// logic
	// modules: 1
}

func ExampleFunction_Eval() {
	g, _ := asyncsyn.ParseSTGString(twoPulse)
	c, _ := asyncsyn.Synthesize(g, asyncsyn.Options{})
	f, _ := c.Function("b")
	fmt.Println(f.Eval(map[string]bool{"a": false, "csc0": false}))
	fmt.Println(f.Eval(map[string]bool{"a": true, "csc0": false}))
	// Output:
	// true
	// false
}
