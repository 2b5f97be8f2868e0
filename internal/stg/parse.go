package stg

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"asyncsyn/internal/petri"
)

// ParseError reports a syntax or semantic error in a .g source with its
// line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e ParseError) Error() string { return fmt.Sprintf("stg: line %d: %s", e.Line, e.Msg) }

// Parse reads an STG in the astg/SIS ".g" text format:
//
//	.model name
//	.inputs a b
//	.outputs c
//	.internal d
//	.dummy e0
//	.graph
//	a+ b+ c+/2        # arcs from a+ to b+ and to c+/2
//	p0 c+             # explicit place p0 feeding c+
//	.marking { p0 <a+,b+> }
//	.end
//
// Lines starting with '#' and blank lines are ignored. Unrecognised dot
// directives (.capacity, .slowenv, ...) are skipped.
func Parse(r io.Reader) (*G, error) {
	sc := bufio.NewScanner(r)
	// Lines may be up to 1 MiB long. The buffer starts small and grows
	// only as long lines need it, so a typical spec never allocates the
	// limit.
	sc.Buffer(nil, 1<<20)

	g := New("")
	var (
		lineNo    int
		inGraph   bool
		sawEnd    bool
		dummies   = make(map[string]bool)
		trans     = make(map[string]petri.TransID) // canonical transition name → id
		places    = make(map[string]petri.PlaceID)
		arcLines  [][]string // deferred until declarations are complete
		arcLineNo []int
		markLine  string
		markNo    int
	)

	errf := func(n int, format string, args ...any) error {
		return ParseError{Line: n, Msg: fmt.Sprintf(format, args...)}
	}

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch head := fields[0]; {
		case head == ".model" || head == ".name":
			if len(fields) > 1 {
				g.Name = fields[1]
				g.Net.Name = fields[1]
			}
		case head == ".inputs":
			for _, s := range fields[1:] {
				if _, ok := g.AddSignal(s, Input); !ok {
					return nil, errf(lineNo, "signal %q declared twice", s)
				}
			}
		case head == ".outputs":
			for _, s := range fields[1:] {
				if _, ok := g.AddSignal(s, Output); !ok {
					return nil, errf(lineNo, "signal %q declared twice", s)
				}
			}
		case head == ".internal":
			for _, s := range fields[1:] {
				if _, ok := g.AddSignal(s, Internal); !ok {
					return nil, errf(lineNo, "signal %q declared twice", s)
				}
			}
		case head == ".dummy":
			for _, s := range fields[1:] {
				dummies[s] = true
			}
		case head == ".graph":
			inGraph = true
		case head == ".marking":
			inGraph = false
			markLine = strings.TrimSpace(strings.TrimPrefix(strings.Join(fields, " "), ".marking"))
			markNo = lineNo
		case head == ".end":
			sawEnd = true
			inGraph = false
		case strings.HasPrefix(head, "."):
			// Unknown directive (.capacity, .coords, ...): skip.
			inGraph = false
		default:
			if !inGraph {
				return nil, errf(lineNo, "unexpected token %q outside .graph", head)
			}
			arcLines = append(arcLines, fields)
			arcLineNo = append(arcLineNo, lineNo)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEnd {
		return nil, fmt.Errorf("stg: missing .end")
	}

	// Node resolution: a token is a transition if it parses as
	// signal{+,-,~}[/k] over a declared signal, or is a declared dummy;
	// otherwise it is a place.
	getTrans := func(tok string, n int) (petri.TransID, bool, error) {
		if t, ok := trans[tok]; ok {
			return t, true, nil
		}
		if dummies[tok] {
			t := g.AddDummy(tok)
			trans[tok] = t
			return t, true, nil
		}
		sig, dir, inst, ok := splitEdge(tok)
		if !ok {
			return 0, false, nil
		}
		si, declared := g.SignalIndex(sig)
		if !declared {
			// Looks like an edge of an undeclared signal: astg treats it
			// as an error rather than a place name.
			return 0, false, errf(n, "transition %q of undeclared signal %q", tok, sig)
		}
		t := g.AddTransition(si, dir, inst)
		trans[tok] = t
		return t, true, nil
	}
	getPlace := func(tok string) petri.PlaceID {
		if p, ok := places[tok]; ok {
			return p
		}
		p := g.Net.AddPlace(tok)
		places[tok] = p
		return p
	}

	// First pass: create every node mentioned at the head of a line so
	// that targets referring forward resolve consistently.
	for k, fields := range arcLines {
		for _, tok := range fields {
			if _, isT, err := getTrans(tok, arcLineNo[k]); err != nil {
				return nil, err
			} else if !isT {
				getPlace(tok)
			}
		}
	}
	// Second pass: arcs from the head node to each remaining node.
	for k, fields := range arcLines {
		n := arcLineNo[k]
		src := fields[0]
		srcT, srcIsT, _ := getTrans(src, n)
		for _, tok := range fields[1:] {
			dstT, dstIsT, _ := getTrans(tok, n)
			switch {
			case srcIsT && dstIsT:
				g.Net.Arc(srcT, dstT)
			case srcIsT && !dstIsT:
				g.Net.ConnectTP(srcT, getPlace(tok))
			case !srcIsT && dstIsT:
				g.Net.ConnectPT(getPlace(src), dstT)
			default:
				return nil, errf(n, "arc between two places %q and %q", src, tok)
			}
		}
	}

	// Marking.
	g.Net.Initial = g.Net.NewMarking()
	if markLine != "" {
		if err := parseMarking(g, markLine, markNo, places); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// parseMarking handles "{ p0 p1=2 <a+,b+> }".
func parseMarking(g *G, s string, lineNo int, places map[string]petri.PlaceID) error {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	for _, tok := range strings.Fields(s) {
		count := 1
		if i := strings.LastIndexByte(tok, '='); i > 0 && !strings.HasPrefix(tok, "<") {
			c, err := strconv.Atoi(tok[i+1:])
			// Token counts are stored in a uint8 marking; reject values
			// that would silently wrap (the parser fronts untrusted
			// input, so an out-of-range count must be an error, not a
			// truncation).
			if err != nil || c < 0 || c > 255 {
				return ParseError{Line: lineNo, Msg: fmt.Sprintf("bad token count in %q", tok)}
			}
			count, tok = c, tok[:i]
		}
		var p petri.PlaceID
		if strings.HasPrefix(tok, "<") && strings.HasSuffix(tok, ">") {
			inner := tok[1 : len(tok)-1]
			parts := strings.SplitN(inner, ",", 2)
			if len(parts) != 2 {
				return ParseError{Line: lineNo, Msg: fmt.Sprintf("bad implicit place %q", tok)}
			}
			from, okF := g.Net.TransitionByLabel(parts[0])
			to, okT := g.Net.TransitionByLabel(parts[1])
			if !okF || !okT {
				return ParseError{Line: lineNo, Msg: fmt.Sprintf("implicit place %q names unknown transitions", tok)}
			}
			found := false
			for _, pp := range g.Net.Transitions[from].Post {
				if g.Net.Places[pp].Implicit && hasTrans(g.Net.Places[pp].Post, to) {
					p, found = pp, true
					break
				}
			}
			if !found {
				return ParseError{Line: lineNo, Msg: fmt.Sprintf("no arc for implicit place %q", tok)}
			}
		} else {
			pp, ok := places[tok]
			if !ok {
				return ParseError{Line: lineNo, Msg: fmt.Sprintf("marking names unknown place %q", tok)}
			}
			p = pp
		}
		if int(g.Net.Initial[p])+count > 255 {
			return ParseError{Line: lineNo, Msg: fmt.Sprintf("marking of %q exceeds 255 tokens", tok)}
		}
		g.Net.Initial[p] += uint8(count)
	}
	return nil
}

func hasTrans(ts []petri.TransID, want petri.TransID) bool {
	for _, t := range ts {
		if t == want {
			return true
		}
	}
	return false
}

// splitEdge parses "req+", "ack-/2", "d~" into (signal, dir, instance).
func splitEdge(tok string) (sig string, dir Dir, instance int, ok bool) {
	body := tok
	if i := strings.IndexByte(tok, '/'); i >= 0 {
		n, err := strconv.Atoi(tok[i+1:])
		if err != nil || n < 0 {
			return "", 0, 0, false
		}
		instance, body = n, tok[:i]
	}
	if len(body) < 2 {
		return "", 0, 0, false
	}
	switch body[len(body)-1] {
	case '+':
		dir = Rising
	case '-':
		dir = Falling
	case '~':
		dir = Toggle
	default:
		return "", 0, 0, false
	}
	return body[:len(body)-1], dir, instance, true
}

// ParseString parses a .g source held in a string.
func ParseString(src string) (*G, error) { return Parse(strings.NewReader(src)) }
