package csc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// WarmChain accumulates reusable learned clauses across the related
// formulas of one solve chain: the widening attempts of a module, the
// m → m+1 growth of Figure 4's joint loop, and the per-candidate
// formulas of incremental insertion. All of these share the same state
// graph, so their edge-compatibility clauses are identical per signal
// column; learned clauses derived exclusively from that stable prefix
// (sat.Result.StableLearned) are consequences of every formula in the
// chain and can seed later searches.
//
// Clauses are stored in a column-normalized space — variable 2s+bit for
// state s's (a,b) bit pair, signs preserved — because a stable learned
// clause constrains a single signal column and every column is
// symmetric: Seed re-instantiates each clause at every column of the
// next formula.
//
// A chain is bound to one graph (Rebind): reusing clauses across
// different graphs is unsound, since a clause learned from a coarser
// quotient's edges can exclude models of a finer one. A WarmChain is
// not safe for concurrent use; chains are per-module and modules solve
// sequentially. All methods are nil-receiver safe no-ops.
type WarmChain struct {
	fp      string
	clauses [][]sat.Lit
	seen    map[string]struct{}
}

// maxChainClauses bounds a chain so pathological instances cannot make
// every later formula pay an unbounded seeding cost.
const maxChainClauses = 20000

// NewWarmChain returns an empty, unbound chain.
func NewWarmChain() *WarmChain {
	return &WarmChain{seen: make(map[string]struct{})}
}

// Rebind attaches the chain to g, dropping all accumulated clauses if
// the chain was bound to a structurally different graph. Structure
// means exactly what the stable prefix encodes: the state count and the
// labelled edge relation (signal, direction, input-ness per edge).
func (c *WarmChain) Rebind(g *sg.Graph) {
	if c == nil {
		return
	}
	fp := graphFingerprint(g)
	if c.fp == fp {
		return
	}
	c.fp = fp
	c.clauses = c.clauses[:0]
	clear(c.seen)
}

// graphFingerprint hashes the inputs of the edge-compatibility clauses.
func graphFingerprint(g *sg.Graph) string {
	h := sha256.New()
	var buf [8]byte
	w := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	w(uint64(len(g.States)), uint64(len(g.Edges)))
	for _, e := range g.Edges {
		in := uint64(0)
		if g.InputEdge(e) {
			in = 1
		}
		w(uint64(e.From), uint64(e.To), uint64(e.Sig+1), uint64(e.Dir), in)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Hash fingerprints the chain's current seed state for cache keys. A
// nil chain hashes to "-", distinct from the hash of an empty chain: a
// caller with no chain and a caller with a drained one absorb hits
// differently, so they must not share entries.
func (c *WarmChain) Hash() string {
	if c == nil {
		return "-"
	}
	h := sha256.New()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(uint64(len(c.clauses)))
	for _, cl := range c.clauses {
		w(uint64(len(cl)))
		for _, l := range cl {
			w(uint64(l))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Len returns the number of accumulated normalized clauses.
func (c *WarmChain) Len() int {
	if c == nil {
		return 0
	}
	return len(c.clauses)
}

// Seed instantiates the chain's clauses for a formula over numStates
// states and m signal columns, in deterministic (absorption) order:
// each normalized clause yields one concrete clause per column. Returns
// nil when there is nothing to seed.
func (c *WarmChain) Seed(numStates, m int) *sat.Warm {
	if c == nil || len(c.clauses) == 0 {
		return nil
	}
	w := &sat.Warm{Clauses: make([][]sat.Lit, 0, len(c.clauses)*m)}
	for _, cl := range c.clauses {
		for k := 0; k < m; k++ {
			inst := make([]sat.Lit, len(cl))
			for i, l := range cl {
				nv := l.Var() // 2s + bit
				s, bit := nv>>1, nv&1
				v := 2*(k*numStates+s) + bit // column-major Encode layout
				inst[i] = sat.Lit(2*v) | sat.Lit(l&1)
			}
			w.Clauses = append(w.Clauses, inst)
		}
	}
	return w
}

// Normalize maps an exported clause set (sat.Result.StableLearned, in
// the variable layout of Encode for numStates states and m columns)
// into the chain's column-normalized space. Clauses that touch
// auxiliary variables or span more than one column are discarded: only
// single-column state-variable clauses are column-symmetric. The result
// is deduplicated and order-deterministic; it does not depend on the
// chain's current contents (cache entries store it verbatim).
func (c *WarmChain) Normalize(numStates, m int, exported [][]sat.Lit) [][]sat.Lit {
	if c == nil || len(exported) == 0 {
		return nil
	}
	stateVars := 2 * numStates * m
	var out [][]sat.Lit
	var seen map[string]struct{}
	for _, cl := range exported {
		norm := make([]sat.Lit, 0, len(cl))
		col := -1
		ok := true
		for _, l := range cl {
			v := l.Var()
			if v >= stateVars {
				ok = false // auxiliary (d/lex) variable
				break
			}
			// Invert the column-major layout v = 2(k·n + s) + bit.
			rem := v % (2 * numStates)
			s, k, bit := rem>>1, v/(2*numStates), v&1
			if col < 0 {
				col = k
			} else if col != k {
				ok = false // spans columns: not column-symmetric
				break
			}
			nv := 2*s + bit
			norm = append(norm, sat.Lit(2*nv)|(l&1))
		}
		if !ok || len(norm) == 0 {
			continue
		}
		sortLits(norm)
		key := litsKey(norm)
		if _, dup := seen[key]; dup {
			continue
		}
		if seen == nil {
			seen = make(map[string]struct{})
		}
		seen[key] = struct{}{}
		out = append(out, norm)
	}
	return out
}

// AbsorbNormalized merges already-normalized clauses into the chain,
// skipping duplicates, up to the chain cap. Both the miss path (with
// its fresh Normalize result) and the cache-hit path (with the stored
// Entry.Warm) call this, so the chain evolves identically either way.
func (c *WarmChain) AbsorbNormalized(norm [][]sat.Lit) {
	if c == nil {
		return
	}
	for _, cl := range norm {
		if len(c.clauses) >= maxChainClauses {
			return
		}
		key := litsKey(cl)
		if _, dup := c.seen[key]; dup {
			continue
		}
		c.seen[key] = struct{}{}
		c.clauses = append(c.clauses, append([]sat.Lit(nil), cl...))
	}
}

// sortLits orders a clause's literals ascending (insertion sort:
// exported clauses are short).
func sortLits(ls []sat.Lit) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// litsKey renders a (sorted) clause as a dedup map key.
func litsKey(ls []sat.Lit) string {
	b := make([]byte, 4*len(ls))
	for i, l := range ls {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(l))
	}
	return string(b)
}
