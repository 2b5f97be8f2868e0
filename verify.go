package asyncsyn

import (
	"fmt"
	"sort"
	"strings"

	"asyncsyn/internal/logic"
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

// Verilog renders the circuit in the gate model that Verify checks and
// Area prices: each function is one atomic complex gate, written as one
// continuous assignment of its whole two-level cover. A cube without
// literals is 1'b1 and an empty cover 1'b0. The ports are the signals
// the functions read but do not drive (inputs), then the driven signals
// (outputs), each sorted by name. Feedback closes by name; there are no
// intermediate wires. Splitting an assignment into AND and OR gates
// makes a different circuit, one that can glitch where the complex gate
// does not (DESIGN.md §3.6).
func (c *Circuit) Verilog() string {
	declared := make(map[string]bool, len(c.Functions))
	var inputs, outputs []string
	for _, f := range c.Functions {
		declared[f.Name] = true
		outputs = append(outputs, f.Name)
	}
	literals := 0
	for _, f := range c.Functions {
		literals += f.Literals()
		for _, in := range f.Inputs {
			if !declared[in] {
				declared[in] = true
				inputs = append(inputs, in)
			}
		}
	}
	sort.Strings(inputs)
	sort.Strings(outputs)

	var b strings.Builder
	fmt.Fprintf(&b, "// atomic complex-gate model: each assign is one gate (%d literals)\n", literals)
	ports := make([]string, 0, len(inputs)+len(outputs))
	for _, p := range inputs {
		ports = append(ports, verilogName(p))
	}
	for _, p := range outputs {
		ports = append(ports, verilogName(p))
	}
	fmt.Fprintf(&b, "module %s(%s);\n", verilogName(c.Name), strings.Join(ports, ", "))
	for _, in := range inputs {
		fmt.Fprintf(&b, "  input  %s;\n", verilogName(in))
	}
	for _, out := range outputs {
		fmt.Fprintf(&b, "  output %s;\n", verilogName(out))
	}
	b.WriteString("\n")
	for _, f := range c.Functions {
		terms := make([]string, len(f.cover))
		for i, cube := range f.cover {
			var lits []string
			for v := 0; v < cube.N(); v++ {
				switch cube.Var(v) {
				case logic.VTrue:
					lits = append(lits, verilogName(f.Inputs[v]))
				case logic.VFalse:
					lits = append(lits, "~"+verilogName(f.Inputs[v]))
				}
			}
			terms[i] = strings.Join(lits, " & ")
			if len(lits) == 0 {
				terms[i] = "1'b1"
			}
		}
		rhs := strings.Join(terms, " | ")
		if len(terms) == 0 {
			rhs = "1'b0"
		}
		fmt.Fprintf(&b, "  assign %s = %s;\n", verilogName(f.Name), rhs)
	}
	b.WriteString("endmodule\n")
	return b.String()
}

// verilogKeywords holds the reserved words of IEEE 1364-2005, none of
// which can name a signal or a module unescaped, each between spaces.
const verilogKeywords = " always and assign automatic begin buf bufif0 bufif1 case casex casez" +
	" cell cmos config deassign default defparam design disable edge else end endcase" +
	" endconfig endfunction endgenerate endmodule endprimitive endspecify endtable endtask" +
	" event for force forever fork function generate genvar highz0 highz1 if ifnone incdir" +
	" include initial inout input instance integer join large liblist library localparam" +
	" macromodule medium module nand negedge nmos nor noshowcancelled not notif0 notif1 or" +
	" output parameter pmos posedge primitive pull0 pull1 pulldown pullup" +
	" pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release repeat rnmos" +
	" rpmos rtran rtranif0 rtranif1 scalared showcancelled signed small specify specparam" +
	" strong0 strong1 supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1" +
	" triand trior trireg unsigned use uwire vectored wait wand weak0 weak1 while wire wor" +
	" xnor xor "

// verilogName prints a module or signal name as a Verilog identifier. A
// simple identifier that is not a keyword stays as it is; any other name
// becomes an escaped identifier, a backslash then the name then the
// space that ends it (r.0 prints as `\r.0 `), with '_' for each byte no
// identifier can hold (whitespace, control and non-ASCII bytes). An
// empty name, such as the module of a spec without .model, prints as
// "unnamed".
func verilogName(s string) string {
	if s == "" {
		return "unnamed"
	}
	simple := !strings.Contains(verilogKeywords, " "+s+" ")
	for i := 0; i < len(s) && simple; i++ {
		ch := s[i]
		simple = ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z' ||
			i > 0 && (ch == '$' || ch >= '0' && ch <= '9')
	}
	if simple {
		return s
	}
	esc := []byte(s)
	for i, ch := range esc {
		if ch <= ' ' || ch > '~' {
			esc[i] = '_'
		}
	}
	return `\` + string(esc) + " "
}
