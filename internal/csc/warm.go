package csc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"asyncsyn/internal/sat"
	"asyncsyn/internal/sg"
)

// WarmChain accumulates reusable learned clauses across the related
// formulas of one solve chain: the m → m+1 growth of Figure 4's joint
// loop, the per-candidate formulas of its greedy tail (Insert) and the
// rounds of expansion refinement. All of these share one state graph,
// so their edge-compatibility clauses are identical per signal column;
// learned clauses derived exclusively from that stable prefix
// (sat.Result.StableLearned) are consequences of every formula in the
// chain and can seed later searches.
//
// Clauses are stored in a column-normalized space — variable 2s+bit for
// state s's (a,b) bit pair, signs preserved — because a stable learned
// clause constrains a single signal column and every column is
// symmetric: seed re-instantiates each clause at every column of the
// next step, in the chain solver's own layout (a(s, k) = lo[k]+2s).
//
// A chain is bound to one graph by identity (Attempt binds it to the
// graph it solves), as a ChainSolver is, and drops its clauses when it
// is handed another: reusing clauses across graphs is unsound, since a
// clause learned from a coarser quotient's edges can exclude models of
// a finer one. A WarmChain is not safe for concurrent use; chains are
// per-module and modules solve sequentially. All methods are
// nil-receiver safe no-ops.
type WarmChain struct {
	g       *sg.Graph
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

// bind attaches the chain to g, dropping every accumulated clause when
// it was bound to another graph. The formulas of one chain are solved
// on one graph object (a module's quotient, or the full graph, which
// refinement rounds only extend by phase columns, never by states or
// edges), so identity is the whole test.
func (c *WarmChain) bind(g *sg.Graph) {
	if c == nil || c.g == g {
		return
	}
	c.g = g
	c.clauses = c.clauses[:0]
	clear(c.seen)
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

// seedBuf is the reusable backing of the seed clauses of one step.
type seedBuf struct {
	lits []sat.Lit
	cls  [][]sat.Lit
}

// seed instantiates the chain's clauses for a step over the first m
// columns of the chain solver's layout lay, in deterministic
// (absorption) order: each normalized clause yields one clause per
// column k, its variable 2s+bit moved to lo[k]+2s+bit. The clauses are
// carved from buf, reused across steps. Returns nil when there is
// nothing to seed.
func (c *WarmChain) seed(lay layout, m int, buf *seedBuf) *sat.Warm {
	if c == nil || len(c.clauses) == 0 {
		return nil
	}
	need := 0
	for _, cl := range c.clauses {
		need += m * len(cl)
	}
	if cap(buf.lits) < need {
		buf.lits = make([]sat.Lit, 0, need)
	}
	lits, cls := buf.lits[:0], buf.cls[:0]
	for _, cl := range c.clauses {
		for k := 0; k < m; k++ {
			lo, off := len(lits), sat.Lit(2*lay.lo[k])
			for _, l := range cl {
				lits = append(lits, l+off)
			}
			cls = append(cls, lits[lo:len(lits):len(lits)])
		}
	}
	buf.lits, buf.cls = lits, cls
	return &sat.Warm{Clauses: cls}
}

// normalize maps a step's stable exports (sat.Result.StableLearned,
// over the chain solver's layout lay, of which the step used the first
// m columns) into the chain's column-normalized space. Clauses that
// touch any other variable (an auxiliary or guard of the step's
// assumption group) or span more than one column are discarded: only
// single-column state-variable clauses are column-symmetric. The result
// is deduplicated and order-deterministic; it does not depend on the
// chain's current contents (cache entries store it verbatim).
func (c *WarmChain) normalize(lay layout, m int, exported [][]sat.Lit) [][]sat.Lit {
	if c == nil || len(exported) == 0 {
		return nil
	}
	var out [][]sat.Lit
	var seen map[string]struct{}
	for _, cl := range exported {
		norm := make([]sat.Lit, 0, len(cl))
		col := -1
		ok := true
		for _, l := range cl {
			k := lay.column(l.Var(), m)
			if k < 0 || (col >= 0 && k != col) {
				ok = false // auxiliary variable, or spans columns
				break
			}
			col = k
			nv := l.Var() - lay.lo[k]
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
