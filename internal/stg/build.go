package stg

import (
	"fmt"

	"asyncsyn/internal/petri"
)

// Builder constructs STGs programmatically with edge names ("req+",
// "ack-/2") instead of raw ids, collecting errors until Build.
type Builder struct {
	g   *G
	err error
	ts  map[string]petri.TransID
}

// NewBuilder starts a builder for a model with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: New(name), ts: make(map[string]petri.TransID)}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("stg builder: "+format, args...)
	}
}

// Inputs declares input signals.
func (b *Builder) Inputs(names ...string) *Builder { return b.declare(Input, names) }

// Outputs declares output signals.
func (b *Builder) Outputs(names ...string) *Builder { return b.declare(Output, names) }

// Internals declares internal signals.
func (b *Builder) Internals(names ...string) *Builder { return b.declare(Internal, names) }

func (b *Builder) declare(kind Kind, names []string) *Builder {
	for _, n := range names {
		if _, ok := b.g.AddSignal(n, kind); !ok {
			b.fail("signal %q declared twice", n)
		}
	}
	return b
}

// trans resolves (creating on first use) the transition for edge name tok.
func (b *Builder) trans(tok string) (petri.TransID, bool) {
	if t, ok := b.ts[tok]; ok {
		return t, true
	}
	sig, dir, inst, ok := splitEdge(tok)
	if !ok {
		b.fail("bad transition name %q", tok)
		return 0, false
	}
	si, declared := b.g.SignalIndex(sig)
	if !declared {
		b.fail("transition %q of undeclared signal %q", tok, sig)
		return 0, false
	}
	t := b.g.AddTransition(si, dir, inst)
	b.ts[tok] = t
	return t, true
}

// Arc adds a causal arc from edge `from` to each edge in `to`.
func (b *Builder) Arc(from string, to ...string) *Builder {
	f, ok := b.trans(from)
	if !ok {
		return b
	}
	for _, dst := range to {
		d, ok := b.trans(dst)
		if !ok {
			return b
		}
		b.g.Net.Arc(f, d)
	}
	return b
}

// Chain adds arcs forming the sequence e1→e2→…→en.
func (b *Builder) Chain(edges ...string) *Builder {
	for i := 0; i+1 < len(edges); i++ {
		b.Arc(edges[i], edges[i+1])
	}
	return b
}

// Cycle adds arcs e1→e2→…→en→e1.
func (b *Builder) Cycle(edges ...string) *Builder {
	if len(edges) < 2 {
		b.fail("cycle needs at least two edges")
		return b
	}
	b.Chain(edges...)
	return b.Arc(edges[len(edges)-1], edges[0])
}

// Place adds an explicit place with arcs from each `from` edge and to
// each `to` edge.
func (b *Builder) Place(name string, from, to []string) *Builder {
	p := b.g.Net.AddPlace(name)
	for _, f := range from {
		if t, ok := b.trans(f); ok {
			b.g.Net.ConnectTP(t, p)
		}
	}
	for _, d := range to {
		if t, ok := b.trans(d); ok {
			b.g.Net.ConnectPT(p, t)
		}
	}
	return b
}

// Token places an initial token on the implicit place of arc from→to.
func (b *Builder) Token(from, to string) *Builder {
	f, okF := b.trans(from)
	d, okT := b.trans(to)
	if !okF || !okT {
		return b
	}
	for _, p := range b.g.Net.Transitions[f].Post {
		pl := b.g.Net.Places[p]
		if pl.Implicit && hasTrans(pl.Post, d) {
			b.ensureMarking()
			b.g.Net.Initial[p]++
			return b
		}
	}
	b.fail("no arc %s→%s to mark", from, to)
	return b
}

// TokenAt places an initial token on the named explicit place.
func (b *Builder) TokenAt(place string) *Builder {
	p, ok := b.g.Net.PlaceByName(place)
	if !ok {
		b.fail("no place %q to mark", place)
		return b
	}
	b.ensureMarking()
	b.g.Net.Initial[p]++
	return b
}

func (b *Builder) ensureMarking() {
	for len(b.g.Net.Initial) < len(b.g.Net.Places) {
		b.g.Net.Initial = append(b.g.Net.Initial, 0)
	}
}

// Build validates and returns the STG.
func (b *Builder) Build() (*G, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.ensureMarking()
	if err := b.g.Validate(); err != nil {
		return nil, err
	}
	return b.g, nil
}
