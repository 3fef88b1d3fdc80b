package answer

import "repro/internal/graph"

// Iterator is the pull-style face of Corollary 2.5: a cursor over the
// solution set in lexicographic order with constant-delay Next calls.
//
// Internally it keeps one cursor per clause (τ, i) and advances them as a
// k-way merge: each Next pops the minimal per-clause candidate and only
// re-advances the clauses that produced it, so a query compiled into many
// disjuncts does not pay for all of them on every step (NextGeq, by
// contrast, is a one-shot primitive and probes every clause).
//
// The iterator owns every buffer it hands out, keeping steady-state Next
// calls allocation-free (the LINT_GUARD and LOWDEG_GUARD AllocsPerRun
// suites pin Next at 0 allocs/op): the slice returned by Next is valid
// only until the following Next or Seek call — copy it to retain it,
// exactly as with Enumerate.
//
// An Iterator borrows its engine and must not be used concurrently with
// other calls on it.
type Iterator struct {
	s     *Skeleton
	nexts [][]graph.V // per clause: candidate ≥ cursor (aliases bufs), nil = drained
	bufs  [][]graph.V // per-clause candidate buffers
	cur   []graph.V   // the next solution to hand out
	prev  []graph.V   // the previously handed-out solution (swap partner of cur)
	succ  []graph.V   // successor scratch
	has   bool
}

// Iterator returns a cursor positioned at the first solution.
func (s *Skeleton) Iterator() *Iterator {
	return s.IteratorFrom(make([]graph.V, s.K))
}

// IteratorFrom returns a cursor positioned at the smallest solution ≥ a.
func (s *Skeleton) IteratorFrom(a []graph.V) *Iterator {
	it := &Iterator{s: s}
	it.Seek(a)
	return it
}

// Seek repositions the cursor at the smallest solution ≥ a (Theorem 2.3:
// constant time per clause). Buffers are created on first use and reused
// by every later Seek and Next.
//
//fod:ctxok the loop is over the compiled query's clauses — work bounded by query size, not by the graph or the solution set
func (it *Iterator) Seek(a []graph.V) {
	s := it.s
	if it.bufs == nil {
		n := len(s.Clauses)
		it.nexts = make([][]graph.V, n)
		it.bufs = make([][]graph.V, n)
		for i := range it.bufs {
			it.bufs[i] = make([]graph.V, s.K)
		}
		it.cur = make([]graph.V, s.K)
		it.prev = make([]graph.V, s.K)
		it.succ = make([]graph.V, s.K)
	}
	it.has = false
	if s.G.N() == 0 {
		for i := range it.nexts {
			it.nexts[i] = nil
		}
		return
	}
	for i, rt := range s.Clauses {
		if s.nextClauseInto(rt, a, it.bufs[i]) {
			it.nexts[i] = it.bufs[i]
		} else {
			it.nexts[i] = nil
		}
	}
	it.settle()
}

// settle copies the overall minimum of the per-clause candidates into
// it.cur.
//
//fod:hotpath
func (it *Iterator) settle() {
	var best []graph.V
	for _, cand := range it.nexts {
		if cand != nil && (best == nil || lexLess(cand, best)) {
			best = cand
		}
	}
	if best == nil {
		it.has = false
		return
	}
	copy(it.cur, best)
	it.has = true
}

// HasNext reports whether another solution is available.
func (it *Iterator) HasNext() bool { return it.has }

// Next returns the current solution and advances the cursor. The returned
// slice is valid until the next call to Next or Seek; copy it to retain
// it. ok=false signals exhaustion.
//
//fod:hotpath
func (it *Iterator) Next() ([]graph.V, bool) {
	if !it.has {
		return nil, false
	}
	// Hand out cur and flip the buffer pair, so settle below writes the
	// upcoming solution without clobbering the slice being returned.
	out := it.cur
	it.cur, it.prev = it.prev, it.cur
	if !incrementTupleInto(it.succ, out, it.s.G.N()) {
		it.has = false
		return out, true
	}
	// Advance exactly the clauses whose candidate was consumed (several
	// clauses may share a solution tuple).
	for i, cand := range it.nexts {
		if cand != nil && !lexLess(out, cand) { // cand ≤ out, i.e. cand == out
			if it.s.nextClauseInto(it.s.Clauses[i], it.succ, it.bufs[i]) {
				it.nexts[i] = it.bufs[i]
			} else {
				it.nexts[i] = nil
			}
		}
	}
	it.settle()
	return out, true
}
