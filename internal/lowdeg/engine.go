// Package lowdeg implements the low-degree constant-delay enumeration
// engine of Durand, Schweikardt & Segoufin, "Enumerating Answers to
// First-Order Queries over Databases of Low Degree" (PODS 2014) — the
// cheaper sibling of the nowhere-dense engine in internal/core, for the
// common case where the input graph has bounded maximum degree d.
//
// On such graphs every radius-r neighborhood N_r(v) has at most
// 1 + d·(d−1)^{r−1}·r ≤ d^r + 1 vertices, so the whole machinery the
// general engine needs to tame unbounded neighborhoods — neighborhood
// covers, R-kernels, skip pointers, a bag-sharded distance index — can be
// dropped. Preprocessing materializes, per vertex, the sorted distance-R
// ball (one CSR array) and, for arities ≥ 3, the sorted radius-R(k−1)
// ball that contains every completion of a type component. Distance-type
// tests become binary searches in these constant-size rows, and the
// Case I "next far candidate" search is a forward scan of the sorted
// starter list: every rejected candidate lies in the R-ball of one of the
// ≤ k−1 prefix elements, so at most (k−1)·d^R entries are skipped before
// the scan succeeds or leaves the obstruction — constant delay for
// constant d.
//
// The engine answers through the same skeleton as core.Engine
// (internal/answer: NextGeq, NextGt, NextLast, Test, Enumerate, Count,
// FastCount, Iterator) — it supplies only the oracle above — and is
// differential-tested against core and the naive oracle by the
// internal/conform battery; queries are consumed in the identical
// decomposed LocalQuery form, so the two engines are interchangeable
// behind the repro facade.
package lowdeg

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/answer"
	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Options tunes Preprocess.
type Options struct {
	// Parallelism bounds the preprocessing worker count. 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential build bit for
	// bit. Any value yields an identical engine.
	Parallelism int
	// Ctx, when non-nil, bounds the preprocessing: it is checked between
	// the ball and per-clause starter phases. Nil means no deadline.
	Ctx context.Context
	// Obs, when non-nil, registers the answering counters (lowdeg.*) and
	// structural gauges. Nil keeps the engine uninstrumented.
	Obs *obs.Registry
}

// Stats reports preprocessing facts and running counters of the answering
// phase.
type Stats struct {
	MaxDegree    int   // max vertex degree of the input graph
	BallRadius   int   // R, the distance-type threshold
	CompRadius   int   // R·(k−1), the component-completion radius
	BallEntries  int   // Σ_v |N_R(v)|, the size of the distance structure
	CompEntries  int   // Σ_v |N_{R(k−1)}(v)| (equals BallEntries for k ≤ 2)
	StarterSizes []int // per (clause, component) starter-list size

	Candidates    int // candidates examined by NextGeq calls
	DeadEnds      int // candidates rejected after deeper levels failed
	LocalEvals    int // local formula evaluations (memo misses)
	LocalEvalHits int // memo hits

	Workers     int           // preprocessing parallelism used
	BallWall    time.Duration // wall time of the ball materialization
	StarterWall time.Duration // wall time of starter-list computation
}

// Engine is the preprocessed low-degree structure for one graph and one
// LocalQuery. Preprocess must complete before use; afterwards the
// answering methods are safe for concurrent use (pooled BFS scratch,
// concurrent memo maps, atomic counters).
//
// The answering phase is the shared skeleton of internal/answer; the
// engine is its oracle: distance tests and Case II rows from the sorted
// ball CSRs, and Case I as a bounded forward scan of the starter list.
type Engine struct {
	answer.Skeleton

	g   *graph.Graph
	q   *core.LocalQuery
	k   int
	r   int // distance-type threshold R
	rho int // local radius ρ

	// ballR is the CSR of sorted radius-R balls: row v (between offsets
	// ballROff[v] and ballROff[v+1]) lists N_R(v) ascending, v included.
	// The dist(a,b) ≤ R test of the answering phase is one binary search
	// in row a — the low-degree replacement for the dist.Index.
	ballROff []int32
	ballRAdj []int32
	// ballC is the CSR of sorted radius-R(k−1) balls, the candidate space
	// for completing a type component around its first element. For
	// k ≤ 2 the radii coincide and ballC aliases ballR.
	ballCOff []int32
	ballCAdj []int32

	opt   Options // retained for the ApplyEdits rebuild path
	stats Stats
}

// Preprocess builds the low-degree index: sorted per-vertex balls and
// per-clause starter lists. Cost O(n · d^{R(k−1)} · eval) — linear for
// constant degree — with no cover, kernels or skip pointers.
func Preprocess(g *graph.Graph, q *core.LocalQuery, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	checkpoint := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("lowdeg: preprocessing canceled: %w", context.Cause(ctx))
		default:
			return nil
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	e := &Engine{g: g, q: q, k: q.K, r: q.R, rho: q.LocalRadius, opt: opt}
	e.Setup(e, g, q.K, q.LocalRadius, q.Guarded, func() *fo.Evaluator { return fo.NewEvaluator(g) })
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers)
	e.stats.Workers = workers
	e.stats.MaxDegree = g.MaxDegree()
	e.stats.BallRadius = e.r
	compR := e.r * (e.k - 1)
	if compR < e.r {
		compR = e.r // k = 1: keep one usable radius
	}
	e.stats.CompRadius = compR

	start := time.Now()
	e.ballROff, e.ballRAdj = ballCSR(g, e.r, pool)
	e.stats.BallEntries = len(e.ballRAdj)
	if compR == e.r {
		e.ballCOff, e.ballCAdj = e.ballROff, e.ballRAdj
	} else {
		e.ballCOff, e.ballCAdj = ballCSR(g, compR, pool)
	}
	e.stats.CompEntries = len(e.ballCAdj)
	e.stats.BallWall = time.Since(start)
	if err := checkpoint(); err != nil {
		return nil, err
	}

	// Evaluate guards once and drop failing clauses, exactly as the core
	// engine does; then compute the starter list of every component.
	for _, ci := range q.LiveClauses(g) {
		if err := checkpoint(); err != nil {
			return nil, err
		}
		start := time.Now()
		rt := q.Clauses[ci].Runtime(e.k, len(e.stats.StarterSizes))
		for _, c := range rt.Comps {
			e.ComputeStarter(c, pool.ForEach)
			e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.Starter))
		}
		e.Clauses = append(e.Clauses, rt)
		e.stats.StarterWall += time.Since(start)
	}
	e.exportInstruments(opt.Obs)
	return e, nil
}

// ballCSR materializes the sorted radius-r ball of every vertex as one
// flat CSR array. Each vertex owns its row, so the per-vertex BFS fans
// out across the pool and the result is worker-count-independent.
func ballCSR(g *graph.Graph, r int, pool *par.Pool) ([]int32, []int32) {
	n := g.N()
	rows := make([][]int32, n)
	nw := pool.Workers()
	scratch := make([]*graph.BFS, nw)
	for w := range scratch {
		scratch[w] = graph.NewBFS(g)
	}
	pool.ForEachWorker(n, func(wk, v int) {
		row := append([]int32(nil), scratch[wk].Ball(v, r)...)
		slices.Sort(row)
		rows[v] = row
	})
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(rows[v])
		off[v+1] = int32(total)
	}
	adj := make([]int32, total)
	for v := 0; v < n; v++ {
		copy(adj[off[v]:off[v+1]], rows[v])
	}
	return off, adj
}

// Within is the oracle's distance test: dist_G(a, b) ≤ R by binary search
// in the sorted ball row of a — the low-degree replacement for
// dist.Index.Within.
//
//fod:hotpath
func (e *Engine) Within(a, b graph.V) bool { return e.within(a, b) }

// within is Within written out small enough for the compiler to inline
// it into the Case I scan (farFromAll), where it runs once per rejected
// starter.
//
//fod:hotpath
func (e *Engine) within(a, b graph.V) bool {
	if a == b {
		return true
	}
	row := e.ballRAdj[e.ballROff[a]:e.ballROff[a+1]]
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid] < int32(b) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == int32(b)
}

// Opening is the oracle's Case I: the candidate must come from the
// starter list at distance > R from every prefix element. On a degree-d
// graph no skip pointers are needed: every rejected starter lies in the
// R-ball of one of the ≤ k−1 prefix elements, so the forward scan skips
// at most (k−1)·d^R entries before succeeding or clearing the
// obstruction — constant delay for constant d.
//
//fod:hotpath
func (e *Engine) Opening(c *answer.Comp, prefix []graph.V, lower graph.V) graph.V {
	for i := sort.SearchInts(c.Starter, lower); i < len(c.Starter); i++ {
		v := c.Starter[i]
		if e.farFromAll(v, prefix) {
			return v
		}
	}
	return -1
}

//fod:hotpath
func (e *Engine) farFromAll(v graph.V, prefix []graph.V) bool {
	for _, p := range prefix {
		if e.within(v, p) {
			return false
		}
	}
	return true
}

// CompBall is the oracle's Case II row: the sorted radius-R(k−1) ball of
// v, at most d^{R(k−1)}+1 entries.
//
//fod:hotpath
func (e *Engine) CompBall(v graph.V) []int32 {
	return e.ballCAdj[e.ballCOff[v]:e.ballCOff[v+1]]
}

// BallR is the oracle's sorted radius-R ball of v.
//
//fod:hotpath
func (e *Engine) BallR(v graph.V) []int32 {
	return e.ballRAdj[e.ballROff[v]:e.ballROff[v+1]]
}

// ExactEval is the literal G[N_ρ(ā_I)] induced-subgraph semantics of
// core.EvalReference, for hand-built (uncertified) queries.
//
//fod:ctxok one evaluation over the ρ-ball of ≤ k component values, memoized per tuple by the skeleton
func (e *Engine) ExactEval(c *answer.Comp, vals []graph.V) bool {
	bfs := e.BFS()
	ball := bfs.BallMulti(vals, e.rho)
	vs := make([]graph.V, len(ball))
	for i, w := range ball {
		vs[i] = int(w)
	}
	e.PutBFS(bfs)
	sub := graph.Induce(e.g, vs)
	ev := fo.NewCachedEvaluator(sub.G)
	env := fo.Env{}
	for i, v := range vals {
		env[c.Vars[i]] = sub.Local(v)
	}
	return ev.Eval(c.Psi, env)
}

// exportInstruments registers the engine's counters and structural gauges
// in reg; a nil registry leaves the engine uninstrumented.
func (e *Engine) exportInstruments(reg *obs.Registry) {
	e.Instrument(reg, "lowdeg")
	if reg == nil {
		return
	}
	reg.Gauge("lowdeg.workers").Set(int64(e.stats.Workers))
	reg.Gauge("lowdeg.max_degree").Set(int64(e.stats.MaxDegree))
	reg.Gauge("lowdeg.ball_entries").Set(int64(e.stats.BallEntries))
	reg.Gauge("lowdeg.clauses").Set(int64(len(e.Clauses)))
}

// Stats returns an isolated snapshot of the current statistics.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.StarterSizes = append([]int(nil), e.stats.StarterSizes...)
	s.Candidates, s.DeadEnds, s.LocalEvals, s.LocalEvalHits = e.Counters()
	return s
}

// Query returns the query the engine was built for.
func (e *Engine) Query() *core.LocalQuery { return e.q }

// ApplyEdits returns an engine answering the query over the edited graph.
// The low-degree engine has no incremental path: preprocessing is already
// linear with a small constant, so the documented fallback is to patch
// the graph copy-on-write and rebuild from scratch with the same options
// (the conformance battery covers this route). A batch that nets out to
// the identity returns the receiver unchanged.
func (e *Engine) ApplyEdits(ctx context.Context, edits []graph.Edit) (*Engine, error) {
	g2, err := graph.Patch(e.g, edits)
	if err != nil {
		return nil, err
	}
	if graph.Equal(g2, e.g) {
		return e, nil
	}
	opt := e.opt
	opt.Ctx = ctx
	return Preprocess(g2, e.q, opt)
}

// Explain renders the engine structure — the low-degree analogue of the
// core engine's EXPLAIN output.
func (e *Engine) Explain() string {
	s := fmt.Sprintf("lowdeg engine: k=%d R=%d ρ=%d\n", e.k, e.r, e.rho)
	s += fmt.Sprintf("  graph: n=%d m=%d maxdeg=%d\n", e.g.N(), e.g.M(), e.stats.MaxDegree)
	s += fmt.Sprintf("  balls: radius %d (%d entries), completion radius %d (%d entries)\n",
		e.stats.BallRadius, e.stats.BallEntries, e.stats.CompRadius, e.stats.CompEntries)
	for ci, rt := range e.Clauses {
		s += fmt.Sprintf("  clause %d: type %s\n", ci, rt.Type)
		for _, c := range rt.Comps {
			s += fmt.Sprintf("    component %v: |starter|=%d psi=%s\n", c.Positions, len(c.Starter), c.Psi)
		}
	}
	return s
}
