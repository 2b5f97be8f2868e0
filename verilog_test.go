package asyncsyn

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/logic"
)

// collideSrc has inputs a and a_n, and x = a' a_n: a decomposition that
// names the inverter of a "a_n" reads the input a_n as that wire.
const collideSrc = `.model collide
.inputs a a_n
.outputs x
.graph
a+ a_n+
a_n+ a-
a- x+
x+ a_n-
a_n- x-
x- a+
.marking { <x-,a+> }
.end
`

// dottedSrc is a handshake whose input r.0 is no plain Verilog
// identifier.
const dottedSrc = `.model dotted
.inputs r.0
.outputs a
.graph
r.0+ a+
a+ r.0-
r.0- a-
a- r.0+
.marking { <a-,r.0+> }
.end
`

// verilogToken is one lexeme of emitted Verilog: an identifier (an
// escaped one without its backslash and closing space) or any other
// symbol.
type verilogToken struct {
	ident bool
	text  string
}

func lexVerilog(t *testing.T, line string) []verilogToken {
	var out []verilogToken
	for i := 0; i < len(line); {
		switch ch := line[i]; {
		case ch == ' ':
			i++
		case ch == '\\':
			end := strings.IndexByte(line[i:], ' ')
			if end < 2 {
				t.Fatalf("unterminated escaped identifier in %q", line)
			}
			out = append(out, verilogToken{true, line[i+1 : i+end]})
			i += end
		case strings.HasPrefix(line[i:], "1'b"):
			out = append(out, verilogToken{false, line[i : i+4]})
			i += 4
		case ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z':
			j := i + 1
			for j < len(line) && (line[j] == '_' || line[j] == '$' || line[j] >= 'a' && line[j] <= 'z' ||
				line[j] >= 'A' && line[j] <= 'Z' || line[j] >= '0' && line[j] <= '9') {
				j++
			}
			out = append(out, verilogToken{true, line[i:j]})
			i = j
		default:
			out = append(out, verilogToken{false, line[i : i+1]})
			i++
		}
	}
	return out
}

// parseAssign reads one emitted `assign name = <sum of products>;` back
// into the driven name and its cover as PLA rows over inputs.
func parseAssign(t *testing.T, line string, inputs []string) (string, []string) {
	toks := lexVerilog(t, line)
	if len(toks) < 5 || toks[0] != (verilogToken{true, "assign"}) || !toks[1].ident ||
		toks[2].text != "=" || toks[len(toks)-1].text != ";" {
		t.Fatalf("not an assign: %q", line)
	}
	index := make(map[string]int, len(inputs))
	for i, in := range inputs {
		index[in] = i
	}
	rhs := toks[3 : len(toks)-1]
	if len(rhs) == 1 && rhs[0].text == "1'b0" {
		return toks[1].text, []string{}
	}
	var rows []string
	row := []byte(strings.Repeat("-", len(inputs)))
	operand, neg := true, false // operands and operators alternate
	for _, tok := range rhs {
		switch {
		case operand && tok.text == "~" && !neg:
			neg = true
			continue
		case operand && tok.ident:
			v, ok := index[tok.text]
			if !ok || row[v] != '-' {
				t.Fatalf("literal %q is no fresh input of %v in %q", tok.text, inputs, line)
			}
			row[v] = '1'
			if neg {
				row[v] = '0'
			}
		case operand && tok.text == "1'b1" && !neg, !operand && tok.text == "&":
		case !operand && tok.text == "|":
			rows = append(rows, string(row))
			row = []byte(strings.Repeat("-", len(inputs)))
		default:
			t.Fatalf("unexpected %q in %q", tok.text, line)
		}
		operand, neg = !operand, false
	}
	if operand {
		t.Fatalf("%q ends in an operator", line)
	}
	return toks[1].text, append(rows, string(row))
}

// checkVerilog requires c.Verilog to declare every read-only signal as
// an input and every driven one as an output, to hold no wire, and to
// hold exactly one assign per function whose right-hand side parses back
// into that function's cover.
func checkVerilog(t *testing.T, c *Circuit) string {
	t.Helper()
	v := c.Verilog()
	var assigns, ports, inputs, outputs []string
	for _, line := range strings.Split(v, "\n") {
		switch toks := lexVerilog(t, line); {
		case len(toks) == 0 || strings.HasPrefix(line, "//") || line == "endmodule":
		case toks[0].text == "module":
			if name := toks[1].text; name != c.Name && (c.Name != "" || name != "unnamed") {
				t.Errorf("%s: module named %q", c.Name, name)
			}
			for _, tok := range toks[2:] {
				if tok.ident {
					ports = append(ports, tok.text)
				}
			}
		case toks[0].text == "input":
			inputs = append(inputs, toks[1].text)
		case toks[0].text == "output":
			outputs = append(outputs, toks[1].text)
		case toks[0].text == "assign":
			assigns = append(assigns, line)
		default:
			t.Fatalf("%s: unexpected line %q in\n%s", c.Name, line, v)
		}
	}
	if len(assigns) != len(c.Functions) {
		t.Fatalf("%s: %d assigns for %d functions:\n%s", c.Name, len(assigns), len(c.Functions), v)
	}
	driven := make(map[string]bool)
	var wantIn, wantOut []string
	for _, f := range c.Functions {
		driven[f.Name] = true
		wantOut = append(wantOut, f.Name)
	}
	for i, f := range c.Functions {
		for _, in := range f.Inputs {
			if !driven[in] {
				driven[in] = true
				wantIn = append(wantIn, in)
			}
		}
		name, rows := parseAssign(t, assigns[i], f.Inputs)
		if name != f.Name || fmt.Sprint(rows) != fmt.Sprint(f.Cubes()) {
			t.Errorf("%s: %q parses to %s = %v; the function is %s = %v",
				c.Name, assigns[i], name, rows, f.Name, f.Cubes())
		}
	}
	sort.Strings(wantIn)
	sort.Strings(wantOut)
	if fmt.Sprint(inputs) != fmt.Sprint(wantIn) || fmt.Sprint(outputs) != fmt.Sprint(wantOut) ||
		fmt.Sprint(ports) != fmt.Sprint(append(wantIn, wantOut...)) {
		t.Errorf("%s: ports %v, inputs %v, outputs %v; want inputs %v, outputs %v",
			c.Name, ports, inputs, outputs, wantIn, wantOut)
	}
	return v
}

// TestVerilogParsesBack checks the emitted module against the circuit
// on every Table-1 row under the modular method, on the TestDirectSuite
// and TestLavagnoSuite rows under their methods, and on three specs
// whose names stress the printer.
func TestVerilogParsesBack(t *testing.T) {
	type run struct {
		name   string
		method Method
	}
	var runs []run
	for _, name := range bench.Names() {
		runs = append(runs, run{name, Modular})
	}
	for _, name := range []string{"vbe-ex1", "vbe-ex2", "wrdata", "fifo", "pa", "atod", "nouse", "sbuf-send-ctl"} {
		runs = append(runs, run{name, Direct})
	}
	for _, name := range []string{"vbe-ex1", "vbe-ex2", "wrdata", "fifo", "atod"} {
		runs = append(runs, run{name, Lavagno})
	}
	for _, r := range runs {
		src, err := bench.Source(r.name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ParseSTGString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Synthesize(g, Options{Method: r.method})
		if err != nil {
			t.Fatalf("%s/%v: %v", r.name, r.method, err)
		}
		checkVerilog(t, c)
	}

	synth := func(src string) *Circuit {
		g, err := ParseSTGString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Synthesize(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{collideSrc, []string{"module collide(a, a_n, x);", "  assign x = ~a & a_n;"}},
		{dottedSrc, []string{`module dotted(\r.0 , a);`, `  input  \r.0 ;`, `  assign a = \r.0 ;`}},
		{strings.Replace(dottedSrc, ".model dotted\n", "", 1), []string{`module unnamed(\r.0 , a);`}},
	} {
		v := checkVerilog(t, synth(tc.src))
		for _, want := range tc.want {
			if !strings.Contains(v, want+"\n") {
				t.Errorf("missing line %q in\n%s", want, v)
			}
		}
	}
}

// TestVerilogRendering pins the whole module for f = a'b + ab' in a
// circuit whose name needs escaping: one port list, one declaration per
// port, and the cover as one assign with no inverter or AND wires.
func TestVerilogRendering(t *testing.T) {
	c1 := logic.NewCube(2) // a'b
	c1.SetVar(0, logic.VFalse)
	c1.SetVar(1, logic.VTrue)
	c2 := logic.NewCube(2) // ab'
	c2.SetVar(0, logic.VTrue)
	c2.SetVar(1, logic.VFalse)
	c := &Circuit{Name: "x or!", Functions: []Function{
		{Name: "f", Inputs: []string{"a", "b"}, cover: logic.Cover{c1, c2}},
	}}
	want := `// atomic complex-gate model: each assign is one gate (4 literals)
module \x_or! (a, b, f);
  input  a;
  input  b;
  output f;

  assign f = ~a & b | a & ~b;
endmodule
`
	if got := c.Verilog(); got != want {
		t.Errorf("Verilog() =\n%s\nwant\n%s", got, want)
	}
}

// TestVerilogNamesAndConstants covers what no Table-1 circuit
// produces: names that are keywords or hold bytes no identifier can,
// and empty and universal covers.
func TestVerilogNamesAndConstants(t *testing.T) {
	for name, want := range map[string]string{
		"a_1$": "a_1$", "1a": `\1a `, "wait": `\wait `, "r.0": `\r.0 `, "my latch": `\my_latch `, "": "unnamed",
	} {
		if got := verilogName(name); got != want {
			t.Errorf("verilogName(%q) = %q, want %q", name, got, want)
		}
	}
	g, err := ParseSTGString(dottedSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Synthesize(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := c.Functions[0].Inputs
	c.Name = "wire"
	c.Functions = []Function{
		{Name: "or", Inputs: in, cover: logic.Cover{}},
		{Name: "one", Inputs: in, cover: logic.Cover{logic.NewCube(len(in))}},
	}
	v := checkVerilog(t, c)
	for _, want := range []string{`module \wire (a, \r.0 , one, \or );`, `  assign \or  = 1'b0;`, "  assign one = 1'b1;"} {
		if !strings.Contains(v, want+"\n") {
			t.Errorf("missing line %q in\n%s", want, v)
		}
	}
}
