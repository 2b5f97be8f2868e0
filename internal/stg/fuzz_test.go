package stg_test

import (
	"testing"

	"asyncsyn/internal/bench"
	"asyncsyn/internal/stg"
)

// FuzzParse hammers the .g parser: it fronts untrusted network input
// through the daemon's POST /v1/synthesize, so it must return errors,
// never panic, on arbitrary bytes. Accepted inputs additionally go
// through Validate, Format, and a re-parse of the formatted output —
// the paths a parsed graph immediately hits in the pipeline — and are
// elaborated both by sg.FromSTG and by the legacy path, which must
// agree.
func FuzzParse(f *testing.F) {
	// Seed with every embedded benchmark (the realistic corpus) ...
	for _, name := range bench.Available() {
		src, err := bench.Source(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	// ... and malformed fragments probing each parser feature: stray
	// tokens, duplicate declarations, bad markings, implicit places,
	// instance suffixes, dummies, huge counts, truncated files.
	for _, src := range []string{
		"",
		".end",
		".model m\n.end",
		".model m\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a+\n.marking { <b+,a+> }\n.end",
		".inputs a a\n.end",
		".inputs a\n.dummy a\n.graph\na a+\n.end",
		".outputs b\n.graph\nb+/999999999 b-\n.end",
		".outputs b\n.graph\np0 p1\n.end",
		".outputs b\n.graph\nb+ b-\n.marking { p7 }\n.end",
		".outputs b\n.graph\nb+ b-\n.marking { <b+,b-> <b-,b+> }\n.end",
		".outputs b\n.graph\nb+ b-\n.marking { p0=99999 }\n.end",
		".outputs b\n.graph\nb+ b-\n.marking { <b+=2 }\n.end",
		".graph\nz+ z-\n.end",
		".model\n.inputs\n.graph\n.marking\n.end",
		".outputs b\n.graph\nb~ b+\nb+ b~/2\n.end",
		".outputs a b\n.graph\na+ b~\nb~ a-\na- b~/2\nb~/2 a+\n.marking { <b~/2,a+> }\n.end",
		"# comment only\n.outputs b\n.graph\nb+ b- # tail\n.end",
		".outputs b\n.capacity p0 2\n.graph\nb+ b-\n.end",
		".marking { p0 }\n.end",
	} {
		f.Add(src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		g, err := stg.ParseString(src)
		if err != nil {
			if g != nil {
				t.Fatalf("non-nil graph alongside error %v", err)
			}
			return
		}
		// A successfully parsed graph must survive the immediate
		// downstream calls without panicking; their errors are fine.
		_ = g.Validate()
		checkElaboratesAlike(t, g)
		out := stg.Format(g)
		// The formatter's output is program-generated; re-parsing it
		// must not panic either (errors tolerated: Format can emit
		// names the parser's heuristics read differently).
		_, _ = stg.ParseString(out)
	})
}
