package asyncsyn

import (
	"fmt"

	"asyncsyn/internal/netlist"
	"asyncsyn/internal/sim"
)

// Verify closed-loop-simulates the circuit against its specification:
// the environment plays the STG's input transitions in every order while
// the synthesized functions drive the non-input signals; every output
// the circuit produces must be enabled by the specification and the loop
// must never deadlock. With walks == 0 the product is explored
// exhaustively up to maxStates; otherwise `walks` random trajectories
// are sampled. The returned slice describes violations (empty = the
// circuit conforms). An exhaustive run that stops at maxStates with
// product states left unexplored returns one "truncated" entry giving
// the explored and reached counts, so a product larger than maxStates
// never reads as conforming. The check covers unexpected outputs and
// deadlock only, not output persistency.
func (c *Circuit) Verify(s *STG, maxStates, walks int) []string {
	circuit := &sim.Circuit{}
	for _, f := range c.Functions {
		circuit.Gates = append(circuit.Gates, sim.Gate{Name: f.Name, Inputs: f.Inputs, Cover: f.cover})
	}
	opt := sim.Options{MaxDepth: maxStates}
	if walks > 0 {
		opt.RandomWalks = walks
		opt.RandomSteps = 400
	}
	violations := sim.Run(s.g, circuit, c.initialLevels, opt)
	out := make([]string, len(violations))
	for i, v := range violations {
		out[i] = v.String()
	}
	return out
}

// PLA renders one synthesized function in the Berkeley PLA format
// consumed by espresso and SIS (.i/.o/.ilb/.ob header, one cube per
// row).
func (f Function) PLA() string {
	s := fmt.Sprintf(".i %d\n.o 1\n.ilb", len(f.Inputs))
	for _, in := range f.Inputs {
		s += " " + in
	}
	s += fmt.Sprintf("\n.ob %s\n.p %d\n", f.Name, len(f.cover))
	for _, row := range f.Cubes() {
		s += row + " 1\n"
	}
	return s + ".e\n"
}

// Verilog renders the whole circuit as a structural Verilog module: one
// inverter per complemented input, one AND per cube, one OR per
// function, with feedback wired by name.
func (c *Circuit) Verilog() string {
	fns := make([]netlist.Function, 0, len(c.Functions))
	for _, f := range c.Functions {
		fns = append(fns, netlist.Function{Name: f.Name, Inputs: f.Inputs, Cover: f.cover})
	}
	return netlist.Build(c.Name, fns).Verilog()
}
