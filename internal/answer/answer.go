// Package answer is the answering phase shared by both enumeration
// engines: the lexicographic next-solution search of the paper's §5.2,
// Testing (Corollary 2.4), constant-delay Enumeration (Corollary 2.5),
// the k-way-merge Iterator, the Lemma 5.2 partner primitive and the
// Grohe–Schweikardt FastCount family.
//
// The search is one backtracking skeleton whose per-level candidate
// generators are the paper's Case I (a position that opens a new
// component takes the next starter at distance > R from the whole
// prefix) and Case II (a position inside an open component takes the
// next vertex of the ball around the component's first element). The
// nowhere-dense engine (internal/core) and the low-degree engine of
// Durand–Schweikardt–Segoufin (internal/lowdeg) run exactly this scheme
// and differ only in how `dist ≤ R` is decided and where Case I finds its
// far candidates. Those differences are the Oracle; everything else lives
// here, once.
//
// The package depends only on graph, fo, obs and the standard library, and
// imports neither engine.
package answer

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Oracle is what an engine supplies to the skeleton. Ball rows are
// sorted ascending and include their centre. Arguments passed through an
// oracle call escape to the heap, so callers hand it heap slices only.
type Oracle interface {
	// Within reports dist_G(a, b) ≤ R.
	Within(a, b graph.V) bool
	// Opening is Case I for a non-empty prefix: the smallest starter
	// v ≥ lower of c with dist(v, p) > R for every prefix element p, or
	// -1 if there is none.
	Opening(c *Comp, prefix []graph.V, lower graph.V) graph.V
	// CompBall returns N_{R(k−1)}(v), the Case II candidate row: every
	// completion of a component lies in the ball of its first element.
	CompBall(v graph.V) []int32
	// BallR returns N_R(v), the row FastCount scans for close pairs.
	BallR(v graph.V) []int32
	// ExactEval evaluates c's formula at vals with the literal
	// G[N_ρ(ā_I)] semantics, for hand-built (uncertified) queries.
	ExactEval(c *Comp, vals []graph.V) bool
}

// Clause is the runtime form of one live clause (τ, i) of Theorem 5.4.
type Clause struct {
	Type    *fo.DistType
	Comps   []*Comp
	CompOf  []int // position -> index into Comps
	FirstOf []int // position -> earliest position of its component
}

// Comp is the runtime form of one component formula ψ_I.
type Comp struct {
	// ID numbers the component in the engine-wide clause-major order, so
	// an engine can keep per-component Case I structures beside it.
	ID        int
	Positions []int        // the component I, ascending
	Type      *fo.DistType // the owning clause's distance type
	Psi       fo.Formula
	Vars      []fo.Var // variable of each position, aligned with Positions
	Last      int      // max position (where ψ gets tested)

	// Starter machinery for the component's first position (Step 12 of
	// the paper, generalized to every level that opens a new component).
	Starter      []graph.V // sorted vertices that can open the component
	InStart      []bool    // membership, indexed by vertex
	StarterReady bool      // singleton component: InStart is the solution set

	memo sync.Map // tupleKey -> bool, local evaluation memo
}

// CollectStarter rebuilds Starter from the InStart bitmap and, for a
// singleton component, marks the bitmap as the exact solution list so
// later evaluations answer from it in O(1).
func (c *Comp) CollectStarter() {
	c.Starter = nil
	for v, in := range c.InStart {
		if in {
			c.Starter = append(c.Starter, v)
		}
	}
	c.StarterReady = len(c.Positions) == 1
}

// counters are the answering-phase statistics as atomic instruments, so
// concurrent queries can bump them without a lock.
type counters struct {
	candidates    obs.Counter
	deadEnds      obs.Counter
	localEvals    obs.Counter
	localEvalHits obs.Counter
}

// Skeleton is the answering phase over one engine's preprocessed
// structures. An engine embeds it, fills Clauses, and calls Setup; the
// answering methods are then safe for concurrent use (pooled scratch,
// concurrent memo maps, atomic counters).
type Skeleton struct {
	G       *graph.Graph
	K       int
	Rho     int  // local radius ρ
	Guarded bool // compiler-certified: evaluate ψ over the global ρ-ball
	Clauses []*Clause
	O       Oracle

	bfsPool sync.Pool // *graph.BFS on G
	evPool  sync.Pool // *fo.Evaluator for guarded local evaluations
	envPool sync.Pool // fo.Env scratch for guarded local evaluations

	ctr counters
	reg *obs.Registry
	// Latency histograms; nil unless RecordLatency was called — the nil
	// check is the disabled fast path.
	nextGeqH, nextLastH, testH, delayH *obs.Histogram
}

// Setup wires the skeleton to its graph, query shape and oracle.
// newEval builds the evaluator guarded local evaluations run on.
func (s *Skeleton) Setup(o Oracle, g *graph.Graph, k, rho int, guarded bool, newEval func() *fo.Evaluator) {
	s.O, s.G, s.K, s.Rho, s.Guarded = o, g, k, rho, guarded
	s.bfsPool.New = func() any { return graph.NewBFS(g) }
	s.evPool.New = func() any { return newEval() }
	s.envPool.New = func() any { return fo.Env{} }
}

// BFS hands out pooled BFS scratch on G; return it with PutBFS.
func (s *Skeleton) BFS() *graph.BFS { return s.bfsPool.Get().(*graph.BFS) }

// PutBFS returns scratch taken with BFS.
func (s *Skeleton) PutBFS(b *graph.BFS) { s.bfsPool.Put(b) }

// Instrument registers the answering counters in reg as
// prefix.candidates, prefix.dead_ends, prefix.local_evals and
// prefix.local_eval_hits. A nil registry leaves the skeleton
// uninstrumented.
func (s *Skeleton) Instrument(reg *obs.Registry, prefix string) {
	s.reg = reg
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+".candidates", &s.ctr.candidates)
	reg.RegisterCounter(prefix+".dead_ends", &s.ctr.deadEnds)
	reg.RegisterCounter(prefix+".local_evals", &s.ctr.localEvals)
	reg.RegisterCounter(prefix+".local_eval_hits", &s.ctr.localEvalHits)
}

// RecordLatency additionally records per-call latency of NextGeq,
// NextLast and Test, and the Corollary 2.5 per-answer delay inside
// Enumerate, as prefix.next_geq_ns, prefix.next_last_ns, prefix.test_ns
// and prefix.delay_ns. Call it after Instrument; a nil registry is a
// no-op.
func (s *Skeleton) RecordLatency(prefix string) {
	if s.reg == nil {
		return
	}
	s.nextGeqH = s.reg.Histogram(prefix + ".next_geq_ns")
	s.nextLastH = s.reg.Histogram(prefix + ".next_last_ns")
	s.testH = s.reg.Histogram(prefix + ".test_ns")
	s.delayH = s.reg.Histogram(prefix + ".delay_ns")
}

// Obs returns the registry passed to Instrument (nil when uninstrumented).
func (s *Skeleton) Obs() *obs.Registry { return s.reg }

// Graph returns the graph the skeleton answers over.
func (s *Skeleton) Graph() *graph.Graph { return s.G }

// Counters returns the running answering-phase counters.
func (s *Skeleton) Counters() (candidates, deadEnds, localEvals, localEvalHits int) {
	return int(s.ctr.candidates.Load()), int(s.ctr.deadEnds.Load()),
		int(s.ctr.localEvals.Load()), int(s.ctr.localEvalHits.Load())
}

// ComputeStarter fills c.InStart and c.Starter: the vertices that can
// take the component's first position (Step 12 of the paper for
// singleton components; multi-position components search the ball
// around each vertex for a completion respecting the internal distance
// pattern). The per-vertex tests are independent — they share only the
// concurrent caches and pooled scratch — so forEach (an engine passes its
// worker pool's) may fan them out; each writes its own InStart slot and
// the sorted list is assembled from the bitmap afterwards, making the
// result worker-count-independent.
func (s *Skeleton) ComputeStarter(c *Comp, forEach func(n int, fn func(v int))) {
	c.InStart = make([]bool, s.G.N())
	forEach(s.G.N(), func(v int) { c.InStart[v] = s.Opens(c, v) })
	c.CollectStarter()
}

// Opens reports whether v can take c's first position, i.e. whether the
// component has a local solution with first coordinate v. It is the
// per-vertex starter test; call it before CollectStarter marks the
// bitmap ready.
func (s *Skeleton) Opens(c *Comp, v graph.V) bool {
	if len(c.Positions) == 1 {
		return s.localEval(c, []graph.V{v})
	}
	return s.completes(c, []graph.V{v})
}

// completes reports whether the partial component assignment (values for
// c.Positions[:len(vals)]) extends to a full local solution, searching
// candidates in the R(k−1)-ball of the first value — which contains
// every completion, since component positions are chained by close edges
// of length ≤ R.
func (s *Skeleton) completes(c *Comp, vals []graph.V) bool {
	if len(vals) == len(c.Positions) {
		return s.componentTypeOK(c, vals) && s.localEval(c, vals)
	}
	pj := c.Positions[len(vals)]
	for _, w32 := range s.O.CompBall(vals[0]) {
		w := graph.V(w32)
		ok := true
		for i, v := range vals {
			if s.O.Within(v, w) != c.Type.Close(c.Positions[i], pj) {
				ok = false
				break
			}
		}
		if ok && s.completes(c, append(vals, w)) {
			return true
		}
	}
	return false
}

// componentTypeOK re-verifies all internal type edges of the component.
func (s *Skeleton) componentTypeOK(c *Comp, vals []graph.V) bool {
	for i := range vals {
		for j := i + 1; j < len(vals); j++ {
			if s.O.Within(vals[i], vals[j]) != c.Type.Close(c.Positions[i], c.Positions[j]) {
				return false
			}
		}
	}
	return true
}

// localEval evaluates ψ_I(ā_I) with memoization; vals is aligned with
// c.Positions. Compiler-certified (Guarded) queries evaluate over the
// global graph with quantifiers restricted to the ρ-ball domain — every
// quantifier is witness-guarded within ρ, so this agrees with the local
// semantics and needs no subgraph. Hand-built queries get the literal
// G[N_ρ(ā_I)] semantics from the oracle.
//
// Safe for concurrent use: the memo is a concurrent map (duplicate
// concurrent evaluations compute the same value, so racing stores are
// benign) and the evaluator/BFS scratch is pooled.
func (s *Skeleton) localEval(c *Comp, vals []graph.V) bool {
	if c.StarterReady && len(vals) == 1 {
		return c.InStart[vals[0]]
	}
	//fod:coldpath memo key of the general-component path — singleton components (the pinned 0-alloc guards) take the StarterReady fast path above
	key := tupleKey(vals)
	if r, ok := c.memo.Load(key); ok {
		s.ctr.localEvalHits.Add(1)
		return r.(bool)
	}
	s.ctr.localEvals.Add(1)
	var res bool
	if s.Guarded {
		bfs := s.BFS()
		ball := bfs.BallMulti(vals, s.Rho)
		domain := make([]graph.V, len(ball))
		for i, w := range ball {
			domain[i] = int(w)
		}
		s.PutBFS(bfs)
		env := s.envPool.Get().(fo.Env)
		clear(env)
		for i, v := range vals {
			env[c.Vars[i]] = v
		}
		ev := s.evPool.Get().(*fo.Evaluator)
		res = ev.EvalOver(c.Psi, env, domain)
		s.evPool.Put(ev)
		s.envPool.Put(env)
	} else {
		// Hand-built (uncertified) queries only: the pinned 0-alloc delay
		// guards all run compiler-certified queries, and the memo above
		// makes this a once-per-tuple cost, not a per-answer one. The
		// copy keeps vals from escaping through the oracle call, so
		// callers may pass stack buffers.
		own := append([]graph.V(nil), vals...)
		//fod:coldpath memoized fallback for uncertified queries
		res = s.O.ExactEval(c, own)
	}
	c.memo.Store(key, res)
	return res
}

func tupleKey(vals []graph.V) string {
	b := make([]byte, 0, len(vals)*5)
	for _, v := range vals {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

// NextGeq is the main primitive of Theorem 2.3: it returns the
// lexicographically smallest solution ā′ ≥ ā, or ok=false if none exists.
// Per the paper's answering phase, the smallest matching tuple is computed
// for every clause (τ, i) and the minimum is returned. With latency
// recording on, every call lands in the next_geq_ns histogram.
//
// The arity check and the clock reads live here, in the un-annotated
// wrapper; the inner nextGeq is the //fod:hotpath part.
func (s *Skeleton) NextGeq(a []graph.V) ([]graph.V, bool) {
	if len(a) != s.K {
		panic(fmt.Sprintf("answer: tuple arity %d, want %d", len(a), s.K))
	}
	if h := s.nextGeqH; h != nil {
		start := time.Now()
		sol, ok := s.nextGeq(a)
		h.Observe(time.Since(start))
		return sol, ok
	}
	return s.nextGeq(a)
}

// nextGeq computes NextGeq for a correctly-sized tuple.
//
//fod:hotpath
func (s *Skeleton) nextGeq(a []graph.V) ([]graph.V, bool) {
	if s.G.N() == 0 {
		return nil, false
	}
	var best []graph.V
	for _, rt := range s.Clauses {
		cand := s.nextClause(rt, a)
		if cand != nil && (best == nil || lexLess(cand, best)) {
			best = cand
		}
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// NextGt returns the smallest solution strictly greater than ā.
func (s *Skeleton) NextGt(a []graph.V) ([]graph.V, bool) {
	succ, ok := incrementTuple(a, s.G.N())
	if !ok {
		return nil, false
	}
	return s.NextGeq(succ)
}

// NextLast implements Lemma 5.2; see nextLast. With latency recording on,
// every call lands in the next_last_ns histogram.
func (s *Skeleton) NextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if len(prefix) != s.K-1 {
		panic(fmt.Sprintf("answer: prefix arity %d, want %d", len(prefix), s.K-1))
	}
	if h := s.nextLastH; h != nil {
		start := time.Now()
		v, ok := s.nextLast(prefix, b)
		h.Observe(time.Since(start))
		return v, ok
	}
	return s.nextLast(prefix, b)
}

// nextLast implements Lemma 5.2: for a fixed (k−1)-prefix ā it returns
// the smallest b′ ≥ b with (ā, b′) ∈ q(G), in constant time. This is the
// induction step the paper nests with Theorem 5.1, and the natural
// "page through partners of ā" primitive for applications.
//
//fod:hotpath
func (s *Skeleton) nextLast(prefix []graph.V, b graph.V) (graph.V, bool) {
	if b < 0 {
		b = 0
	}
	best := graph.V(-1)
	for _, rt := range s.Clauses {
		if !s.matches(rt, prefix, len(prefix)) {
			continue
		}
		if v := s.nextCandidate(rt, s.K-1, prefix, b); v >= 0 && (best < 0 || v < best) {
			best = v
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Test implements Corollary 2.4: constant-time membership of ā in the
// query result. With latency recording on, every call lands in the
// test_ns histogram. The arity check and the clock reads live in this
// un-annotated wrapper.
func (s *Skeleton) Test(a []graph.V) bool {
	if len(a) != s.K {
		panic(fmt.Sprintf("answer: tuple arity %d, want %d", len(a), s.K))
	}
	if h := s.testH; h != nil {
		start := time.Now()
		ok := s.test(a)
		h.Observe(time.Since(start))
		return ok
	}
	return s.test(a)
}

// test is the Corollary 2.4 membership check proper; with singleton
// components it performs only distance tests and bitmap probes, and the
// LINT_GUARD and LOWDEG_GUARD AllocsPerRun suites pin it at 0 allocs/op.
//
//fod:hotpath
func (s *Skeleton) test(a []graph.V) bool {
	for _, rt := range s.Clauses {
		if s.matches(rt, a, s.K) {
			return true
		}
	}
	return false
}

// matches checks every constraint of the clause that lives on the first
// n positions of a: the distance pattern among them and the formulas of
// the components that end before n. With n = k it is the full clause
// test; with n = k−1 it is NextLast's prefix check.
//
//fod:hotpath
func (s *Skeleton) matches(rt *Clause, a []graph.V, n int) bool {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.O.Within(a[i], a[j]) != rt.Type.Close(i, j) {
				return false
			}
		}
	}
	for _, c := range rt.Comps {
		if c.Last >= n {
			continue
		}
		if c.StarterReady {
			// Singleton component: the starter bitmap answers in O(1)
			// without materializing the component tuple.
			if !c.InStart[a[c.Positions[0]]] {
				return false
			}
			continue
		}
		vals := make([]graph.V, len(c.Positions))
		for i, p := range c.Positions {
			vals[i] = a[p]
		}
		if !s.localEval(c, vals) {
			return false
		}
	}
	return true
}

// Enumerate implements Corollary 2.5: it yields every solution exactly
// once, in increasing lexicographic order, until exhaustion or until yield
// returns false. The tuple passed to yield is reused; copy it to retain it.
//
// With latency recording on, every iteration's answer-production time
// (the NextGeq step — the paper's "delay", excluding the caller's yield
// body) is recorded into the delay_ns histogram, which is what the
// fodbench delay profiler reports against the constant-delay claim.
//
// The yield callback is the cancellation path: any caller that must honor
// a deadline returns false from yield (CountCtx does exactly that); a ctx
// parameter here would put a select on the constant-delay loop of every
// caller, cancellable or not.
//
//fod:ctxok yield is the cancellation path (see above)
func (s *Skeleton) Enumerate(yield func([]graph.V) bool) {
	if s.G.N() == 0 {
		return
	}
	h := s.delayH
	cur := make([]graph.V, s.K)
	for {
		var sol []graph.V
		var ok bool
		if h != nil {
			start := time.Now()
			sol, ok = s.nextGeq(cur)
			h.Observe(time.Since(start))
		} else {
			sol, ok = s.nextGeq(cur)
		}
		if !ok {
			return
		}
		if !yield(sol) {
			return
		}
		next, ok := incrementTuple(sol, s.G.N())
		if !ok {
			return
		}
		cur = next
	}
}

// Count returns |q(G)| by full enumeration.
func (s *Skeleton) Count() int {
	n := 0
	s.Enumerate(func([]graph.V) bool { n++; return true })
	return n
}

// CountCheckEvery is how many answers a cancellable count produces
// between ctx polls: frequent enough that a canceled request stops after
// a bounded number of constant-delay steps, rare enough that the poll
// cost vanishes against the enumeration itself.
const CountCheckEvery = 4096

// CountCtx counts by full enumeration with cooperative cancellation,
// polling ctx every CountCheckEvery answers. It returns ctx.Err() if the
// context was canceled before the solution set was exhausted.
func (s *Skeleton) CountCtx(ctx context.Context) (int, error) {
	n := 0
	canceled := false
	s.Enumerate(func([]graph.V) bool {
		n++
		if n%CountCheckEvery == 0 {
			select {
			case <-ctx.Done():
				canceled = true
				return false
			default:
			}
		}
		return true
	})
	if canceled {
		return 0, ctx.Err()
	}
	return n, nil
}

// nextClause returns the smallest tuple ≥ a matching the clause, or nil.
//
//fod:hotpath
func (s *Skeleton) nextClause(rt *Clause, a []graph.V) []graph.V {
	tuple := make([]graph.V, s.K)
	if s.nextClauseInto(rt, a, tuple) {
		return tuple
	}
	return nil
}

// nextClauseInto writes the smallest tuple ≥ a matching the clause into
// tuple (len(tuple) == k) and reports whether one exists. It is a
// lexicographic backtracking search whose per-level candidate generators
// are the paper's Case I (new component: the oracle's far-starter search)
// and Case II (ball scan around the component's first element). The
// recursion is a method, not a closure, so a steady-state caller that
// supplies the buffer (the Iterator) allocates nothing.
//
//fod:hotpath
func (s *Skeleton) nextClauseInto(rt *Clause, a, tuple []graph.V) bool {
	return s.nextClauseRec(rt, a, tuple, 0, true)
}

// nextClauseRec places position j of tuple; tight means the prefix equals
// a's, so position j is still bounded below by a[j].
//
//fod:hotpath
func (s *Skeleton) nextClauseRec(rt *Clause, a, tuple []graph.V, j int, tight bool) bool {
	if j == s.K {
		return true
	}
	var lower graph.V
	if tight {
		lower = a[j]
	}
	for v := s.nextCandidate(rt, j, tuple[:j], lower); v >= 0; {
		tuple[j] = v
		s.ctr.candidates.Add(1)
		if s.nextClauseRec(rt, a, tuple, j+1, tight && v == a[j]) {
			return true
		}
		s.ctr.deadEnds.Add(1)
		if v+1 >= s.G.N() {
			break
		}
		v = s.nextCandidate(rt, j, tuple[:j], v+1)
	}
	return false
}

// nextCandidate returns the smallest v ≥ lower that is admissible for
// position j given the placed prefix, or -1.
//
//fod:hotpath
func (s *Skeleton) nextCandidate(rt *Clause, j int, prefix []graph.V, lower graph.V) graph.V {
	if lower >= s.G.N() {
		return -1
	}
	c := rt.Comps[rt.CompOf[j]]
	if rt.FirstOf[j] != j {
		return s.nextWithinComponent(rt, c, j, prefix, lower)
	}
	if len(prefix) == 0 {
		// Case I with nothing to be far from: the next starter.
		i := sort.SearchInts(c.Starter, lower)
		if i == len(c.Starter) {
			return -1
		}
		return c.Starter[i]
	}
	return s.O.Opening(c, prefix, lower)
}

// nextWithinComponent handles a position whose component already has a
// placed element (Case II): candidates live in the ball of radius R(k−1)
// around the component's first element; each is checked against the full
// distance pattern to the prefix, and the component formula is evaluated
// when the component completes at this position.
//
//fod:hotpath
func (s *Skeleton) nextWithinComponent(rt *Clause, c *Comp, j int, prefix []graph.V, lower graph.V) graph.V {
	row := s.O.CompBall(prefix[rt.FirstOf[j]])
	for i := searchInt32(row, int32(lower)); i < len(row); i++ {
		v := graph.V(row[i])
		if !s.patternOK(rt, j, prefix, v) {
			continue
		}
		if j == c.Last && !s.componentHolds(c, prefix, v) {
			continue
		}
		return v
	}
	return -1
}

// patternOK verifies dist(prefix[i], v) ≤ R exactly matches the clause's
// distance type for every placed position i.
//
//fod:hotpath
func (s *Skeleton) patternOK(rt *Clause, j int, prefix []graph.V, v graph.V) bool {
	for i, p := range prefix {
		if s.O.Within(p, v) != rt.Type.Close(i, j) {
			return false
		}
	}
	return true
}

// componentHolds evaluates ψ_I with the component completed by v at its
// last position.
//
//fod:hotpath
func (s *Skeleton) componentHolds(c *Comp, prefix []graph.V, v graph.V) bool {
	if c.StarterReady {
		// Singleton component: the starter bitmap answers in O(1).
		return c.InStart[v]
	}
	vals := make([]graph.V, len(c.Positions))
	for i, p := range c.Positions[:len(c.Positions)-1] {
		vals[i] = prefix[p]
	}
	vals[len(vals)-1] = v
	return s.localEval(c, vals)
}

// searchInt32 returns the smallest index i with row[i] >= x (lower-bound
// binary search, written out so the hot path carries no closure).
//
//fod:hotpath
func searchInt32(row []int32, x int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

//fod:hotpath
func lexLess(a, b []graph.V) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// incrementTupleInto writes the successor of a in the lexicographic order
// on [0,n)^k into dst (len(dst) == len(a)); ok=false at the maximum.
//
//fod:hotpath
func incrementTupleInto(dst, a []graph.V, n int) bool {
	copy(dst, a)
	for i := len(dst) - 1; i >= 0; i-- {
		if dst[i]+1 < n {
			dst[i]++
			return true
		}
		dst[i] = 0
	}
	return false
}

// incrementTuple returns the successor of a in the lexicographic order on
// [0,n)^k, or ok=false at the maximum.
func incrementTuple(a []graph.V, n int) ([]graph.V, bool) {
	out := make([]graph.V, len(a))
	if !incrementTupleInto(out, a, n) {
		return nil, false
	}
	return out, true
}
