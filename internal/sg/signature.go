package sg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// SignatureOf identifies a modular CSC problem — solving conf on g — for
// the solve cache (internal/modcache): the hex SHA-256 of the problem
// exactly as laid out, in state, edge and conflict order. Two problems
// with equal signatures are identical byte for byte — same state
// numbering, same edge order, same conflict lists — so a model decoded
// against one is valid, column for column, against the other. conf may
// be nil (no separation obligations).
//
// The hash reads the state count, the Active mask, the initial state,
// each state's code under Active and its phase values, each edge's
// endpoints, signal, direction and input flag, the conflict lists with
// their lower bound, and the signal roster (names, input flags) with
// the state-signal names. Out and In are not read: they are built from
// Edges alone, so equal edge lists mean equal adjacency.
func SignatureOf(g *Graph, conf *Conflicts) string {
	n := len(g.States)
	sc := scratchFor(n)
	buf := sc.bytes[:0]
	w := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	w(uint64(n))
	w(g.Active)
	w(uint64(g.Initial))
	// The numbering-independent context: the base signal roster (names
	// and input flags decide the blocked phase pairs of every edge
	// clause), the state-signal names and whether conflicts are given.
	w(uint64(len(g.Base)))
	for _, b := range g.Base {
		buf = append(append(buf, b.Name...), 0)
		if b.Input {
			w(1)
		} else {
			w(0)
		}
	}
	w(uint64(len(g.StateSigs)))
	for _, ss := range g.StateSigs {
		buf = append(append(buf, ss.Name...), 0)
	}
	if conf == nil {
		w(0)
	} else {
		w(uint64(conf.LowerBound) + 1)
	}
	for s := range g.States {
		w(g.States[s].Code & g.Active)
		for _, ss := range g.StateSigs {
			w(uint64(ss.Phases[s]))
		}
	}
	for _, e := range g.Edges {
		in := uint64(0)
		if g.InputEdge(e) {
			in = 1
		}
		w(uint64(e.From))
		w(uint64(e.To))
		w(uint64(e.Sig + 1))
		w(uint64(e.Dir))
		w(in)
	}
	if conf != nil {
		w(uint64(len(conf.CSC)))
		w(uint64(len(conf.USC)))
		w(uint64(conf.LowerBound))
		for _, p := range conf.CSC {
			w(uint64(p.A))
			w(uint64(p.B))
		}
		for _, p := range conf.USC {
			w(uint64(p.A))
			w(uint64(p.B))
		}
	}
	sum := sha256.Sum256(buf)
	sc.bytes = buf
	releaseScratch(n, sc)
	return hex.EncodeToString(sum[:])
}
