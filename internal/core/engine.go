package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/answer"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/fo"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/skip"
)

// Options tunes engine preprocessing.
type Options struct {
	// Dist forwards to the distance index of Proposition 4.2.
	Dist dist.Options
	// Parallelism bounds the preprocessing worker count. 0 selects
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential build bit for
	// bit. Any value yields an identical engine — parallelism changes
	// wall time, never the structure or the answers.
	Parallelism int
	// Ctx, when non-nil, bounds the preprocessing: Preprocess checks it
	// between phases (dist → cover → kernel → per-clause starter/skip) and
	// returns the context error once it is canceled or past its deadline.
	// The answering phase is unaffected — checkpoints exist only where the
	// pseudo-linear build spends its time. Nil means no deadline.
	Ctx context.Context
	// Obs, when non-nil, turns on full instrumentation: the preprocessing
	// phases are traced as nested spans (preprocess.dist → .cover →
	// .kernel → .starter → .skip), the answering counters are exported as
	// engine.* counters, per-call latency histograms are recorded for
	// NextGeq/Test/NextLast, and Enumerate records the per-answer delay
	// distribution of Corollary 2.5 into engine.delay_ns. The registry is
	// also threaded into the cover, distance-index, and worker-pool
	// builds. Nil (the default) keeps the answering hot path free of any
	// timing work — each instrument sits behind a single nil check.
	Obs *obs.Registry
}

// Stats reports preprocessing facts and running counters of the answering
// phase.
type Stats struct {
	CoverRadius   int
	CoverBags     int
	CoverDegree   int
	StarterSizes  []int // per (clause, component) starter-list size
	SkipPointers  int   // total materialized skip pointers
	Candidates    int   // candidates examined by NextGeq calls
	DeadEnds      int   // candidates rejected after deeper levels failed
	LocalEvals    int   // bag-local formula evaluations (memo misses)
	LocalEvalHits int   // memo hits

	Workers     int           // preprocessing parallelism used
	DistWall    time.Duration // wall time of the distance-index build
	CoverWall   time.Duration // wall time of the cover computation
	KernelWall  time.Duration // wall time of kernel extraction
	StarterWall time.Duration // wall time of starter-list computation
	SkipWall    time.Duration // wall time of skip-pointer construction

	Mutations   int           // ApplyEdits generations since the from-scratch build
	MutAffected int           // starter slots recomputed by the last ApplyEdits
	MutRebuilds int           // ApplyEdits calls that fell back to a full Preprocess
	MutWall     time.Duration // wall time of the last ApplyEdits
}

// Engine is the preprocessed structure of Theorem 2.3 for one graph and one
// LocalQuery. Preprocess must complete before use; afterwards the
// answering methods (NextGeq, NextGt, NextLast, Test, Enumerate, Count,
// FastCount, Stats) are safe for concurrent use — query-time scratch is
// pooled per goroutine and the lazy caches are concurrent maps.
//
// The answering phase is the shared skeleton of internal/answer; the
// engine is its oracle: distance tests through the Proposition 4.2
// index, Case I through skip pointers and kernel scans, and Case II over
// lazily cached balls.
type Engine struct {
	answer.Skeleton

	g   *graph.Graph
	q   *LocalQuery
	k   int
	r   int // distance-type threshold R
	rho int // local radius ρ

	dix     *dist.Index
	cov     *cover.Cover
	bagSubs []*graph.Sub   // only materialized for non-guarded queries
	bagBFS  []*scratchPool // per-bag BFS scratch

	caseI      []caseI  // per component ID: the Case I structures
	liveIdx    []int    // indices into q.Clauses of guard-surviving clauses
	ballCache  sync.Map // graph.V -> []int32, radius R(k−1)
	ballRCache sync.Map // graph.V -> []int32, radius R
	stats      Stats
}

// caseI holds one component's Case I structures: the Lemma 5.8 skip
// pointers over its starter list and, per bag, starter ∩ K_R(bag).
type caseI struct {
	skip     *skip.Pointers // nil for unary queries
	byKernel [][]graph.V
}

// scratchPool hands out per-goroutine BFS scratch bound to one graph.
type scratchPool struct{ p sync.Pool }

func newScratchPool(g *graph.Graph) *scratchPool {
	sp := &scratchPool{}
	sp.p.New = func() any { return graph.NewBFS(g) }
	return sp
}

func (sp *scratchPool) get() *graph.BFS  { return sp.p.Get().(*graph.BFS) }
func (sp *scratchPool) put(b *graph.BFS) { sp.p.Put(b) }

// newEngine returns an engine for (g, q) answering through dix, with the
// skeleton wired to it; the caller fills the cover and the clauses.
func newEngine(g *graph.Graph, q *LocalQuery, dix *dist.Index) *Engine {
	e := &Engine{g: g, q: q, k: q.K, r: q.R, rho: q.LocalRadius, dix: dix}
	e.Setup(e, g, q.K, q.LocalRadius, q.Guarded, func() *fo.Evaluator {
		ev := fo.NewEvaluator(g)
		ev.UseDistTester(dix)
		return ev
	})
	return e
}

// coverRadius is the neighborhood-cover radius. The kernels make "outside
// every kernel ⇒ far from every previous element" sound, which needs bags
// ⊇ N_{2R}(center of coverage). Guarded queries evaluate their local
// formulas on global balls, so 2R suffices; hand-built queries
// additionally need the bag to contain N_ρ(ā_I) around the component's
// first element (ā_I spans ≤ R(k−1) from it), because their semantics is
// tied to G[N_ρ(ā_I)] computed inside the bag.
func (q *LocalQuery) coverRadius() int {
	coverR := 2 * q.R
	if !q.Guarded {
		if alt := q.R*q.K + q.LocalRadius; alt > coverR {
			coverR = alt
		}
	}
	return coverR
}

// setCover installs the cover and, for hand-built queries, the induced bag
// subgraphs their local evaluations run in.
func (e *Engine) setCover(cov *cover.Cover, pool *par.Pool) {
	e.cov = cov
	e.stats.CoverRadius = cov.R
	e.stats.CoverBags = cov.NumBags()
	e.stats.CoverDegree = cov.Degree()
	if e.q.Guarded {
		return
	}
	e.bagSubs = par.Map(pool, cov.NumBags(), func(i int) *graph.Sub {
		return graph.Induce(e.g, cov.Bag(i))
	})
	e.bagBFS = make([]*scratchPool, len(e.bagSubs))
	for i := range e.bagBFS {
		e.bagBFS[i] = newScratchPool(e.bagSubs[i].G)
	}
}

// Preprocess builds the Theorem 2.3 index: distance index, (kR+ρ, ·)
// neighborhood cover with R-kernels, per-clause starter lists, and skip
// pointers. Its cost is pseudo-linear on nowhere dense inputs. With
// Options.Parallelism > 1 the phases run on a worker pool; the resulting
// engine is identical to the sequential build.
func Preprocess(g *graph.Graph, q *LocalQuery, opt Options) (*Engine, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.K > skip.MaxSetSize+1 {
		return nil, fmt.Errorf("core: arity %d exceeds supported maximum %d", q.K, skip.MaxSetSize+1)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// checkpoint aborts the build between phases once ctx is done. The
	// phases themselves run to completion; on nowhere dense inputs each is
	// pseudo-linear, so cancellation latency is one phase, not one build.
	checkpoint := func() error {
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: preprocessing canceled: %w", context.Cause(ctx))
		default:
			return nil
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	workers := par.Resolve(opt.Parallelism)
	pool := par.NewPool(workers).WithMetrics(par.NewMetrics(opt.Obs, "engine.pool"))
	// StartSpan instead of Span: when the context carries a request trace
	// (serve's singleflight build), the whole phase tree below lands in
	// that trace under its existing span names.
	root := opt.Obs.StartSpan(ctx, "preprocess")

	// Distance index (Proposition 4.2) for the type tests dist ≤ R and —
	// on guarded queries — for the distance atoms inside the component
	// formulas, whose constants may exceed R.
	distOpt := opt.Dist
	if distOpt.Workers == 0 {
		distOpt.Workers = workers
	}
	if distOpt.Obs == nil {
		distOpt.Obs = opt.Obs
	}
	sp := root.Child("dist")
	e := newEngine(g, q, dist.New(g, q.distRadius(), distOpt))
	e.stats.DistWall = sp.End()
	e.stats.Workers = workers
	if err := checkpoint(); err != nil {
		return nil, err
	}

	sp = root.Child("cover")
	cov := cover.ComputeWith(g, q.coverRadius(), cover.Options{Workers: workers, Obs: opt.Obs})
	e.stats.CoverWall = sp.End()
	if err := checkpoint(); err != nil {
		return nil, err
	}
	sp = root.Child("kernel")
	cov.ComputeKernels(e.r)
	e.stats.KernelWall = sp.End()
	if err := checkpoint(); err != nil {
		return nil, err
	}
	e.setCover(cov, pool)

	// Evaluate guards once (the ξ^i_τ sentences of Theorem 5.4) and drop
	// failing clauses. The surviving indices are recorded so a snapshot can
	// restore the exact clause set without re-evaluating the guards.
	e.liveIdx = q.LiveClauses(g)
	for _, ci := range e.liveIdx {
		if err := checkpoint(); err != nil {
			return nil, err
		}
		if err := e.buildClause(&q.Clauses[ci], pool, root, checkpoint); err != nil {
			return nil, err
		}
	}
	root.End()
	e.exportInstruments(opt.Obs)
	return e, nil
}

// exportInstruments registers the engine's always-on counters in reg,
// publishes structural gauges, and creates the answering-phase latency
// histograms. A nil registry leaves the engine uninstrumented (every
// histogram pointer stays nil, so the hot path pays one branch per call).
func (e *Engine) exportInstruments(reg *obs.Registry) {
	e.Instrument(reg, "engine")
	if reg == nil {
		return
	}
	reg.Gauge("engine.workers").Set(int64(e.stats.Workers))
	reg.Gauge("engine.cover_bags").Set(int64(e.stats.CoverBags))
	reg.Gauge("engine.cover_degree").Set(int64(e.stats.CoverDegree))
	reg.Gauge("engine.cover_radius").Set(int64(e.stats.CoverRadius))
	reg.Gauge("engine.skip_pointers").Set(int64(e.stats.SkipPointers))
	reg.Gauge("engine.clauses").Set(int64(len(e.Clauses)))
	e.RecordLatency("engine")
}

// buildClause computes the starter list (Step 12 of the paper), skip
// pointers and kernel lists of every component of a live clause and
// appends its runtime form.
func (e *Engine) buildClause(cl *Clause, pool *par.Pool, trace *obs.Span, checkpoint func() error) error {
	rt := cl.Runtime(e.k, len(e.caseI))
	for _, c := range rt.Comps {
		sp := trace.Child("starter")
		e.ComputeStarter(c, pool.ForEach)
		e.stats.StarterWall += sp.End()
		e.stats.StarterSizes = append(e.stats.StarterSizes, len(c.Starter))
		if err := checkpoint(); err != nil {
			return err
		}
		var x caseI
		if e.k >= 2 {
			sp = trace.Child("skip")
			x.skip = skip.New(e.g, e.cov, e.k-1, c.Starter)
			e.stats.SkipWall += sp.End()
			e.stats.SkipPointers += x.skip.Size()
		}
		x.byKernel = e.kernelLists(c.InStart, pool)
		e.caseI = append(e.caseI, x)
	}
	e.Clauses = append(e.Clauses, rt)
	return nil
}

// kernelLists returns, per bag, starter ∩ K_R(bag) for the starter bitmap
// inStart. Bags are independent and each task writes only its own list.
func (e *Engine) kernelLists(inStart []bool, pool *par.Pool) [][]graph.V {
	// Two counting passes into one flat backing array: per-bag append
	// allocations made this a hotspot on the snapshot-restore path.
	nb := e.cov.NumBags()
	byKernel := make([][]graph.V, nb)
	cnt := make([]int32, nb+1)
	pool.ForEach(nb, func(i int) {
		m := int32(0)
		for _, v := range e.cov.Kernel(i) {
			if inStart[v] {
				m++
			}
		}
		cnt[i+1] = m
	})
	for i := 0; i < nb; i++ {
		cnt[i+1] += cnt[i]
	}
	flat := make([]graph.V, cnt[nb])
	pool.ForEach(nb, func(i int) {
		row := flat[cnt[i]:cnt[i]:cnt[i+1]]
		for _, v := range e.cov.Kernel(i) {
			if inStart[v] {
				row = append(row, v)
			}
		}
		byKernel[i] = row
	})
	return byKernel
}

// Within is the oracle's distance test: dist(a, b) ≤ R through the
// Proposition 4.2 index.
//
//fod:hotpath
func (e *Engine) Within(a, b graph.V) bool { return e.dix.Within(a, b, e.r) }

// Opening is the oracle's Case I: the candidate must come from the
// component's starter list and be at distance > R from every prefix
// element (all of which belong to other components). The answer is the
// minimum of the skip-pointer candidate (outside every kernel of the
// prefix's canonical bags, hence automatically far) and one scan per
// canonical bag kernel.
//
//fod:hotpath
func (e *Engine) Opening(c *answer.Comp, prefix []graph.V, lower graph.V) graph.V {
	x := &e.caseI[c.ID]
	// Canonical bags of the prefix elements, deduplicated. The prefix has
	// ≤ k−1 ≤ skip.MaxSetSize elements (Preprocess enforces the arity
	// bound), so a fixed-size stack array holds the set without
	// allocating.
	var bagArr [skip.MaxSetSize]int
	bags := bagArr[:0]
	for _, p := range prefix {
		b := e.cov.Assign(p)
		dup := false
		for _, y := range bags {
			if y == b {
				dup = true
				break
			}
		}
		if !dup {
			bags = append(bags, b)
		}
	}
	best := graph.V(-1)
	if x.skip != nil {
		if v := x.skip.Query(lower, bags); v != skip.None {
			best = v
		}
	}
	// Scan starter ∩ K_R(X) for each canonical bag X, rejecting candidates
	// within distance R of some prefix element. Rejections are confined to
	// the R-balls of the ≤ k−1 prefix elements, hence pseudo-constant on
	// nowhere dense inputs.
	for _, b := range bags {
		lst := x.byKernel[b]
		for i := sort.SearchInts(lst, lower); i < len(lst); i++ {
			v := lst[i]
			if best >= 0 && v >= best {
				break
			}
			if e.farFromAll(v, prefix) {
				best = v
				break
			}
		}
	}
	return best
}

//fod:hotpath
func (e *Engine) farFromAll(v graph.V, prefix []graph.V) bool {
	for _, p := range prefix {
		if e.dix.Within(v, p, e.r) {
			return false
		}
	}
	return true
}

// CompBall is the oracle's Case II row: the ball of radius R·(k−1) around
// v, memoized per vertex.
func (e *Engine) CompBall(v graph.V) []int32 {
	return e.cachedBall(&e.ballCache, v, e.r*(e.k-1))
}

// BallR is the oracle's N_R(v), memoized per vertex; for k = 2 it shares
// CompBall's cache (the radii coincide).
func (e *Engine) BallR(v graph.V) []int32 {
	if e.k == 2 {
		return e.CompBall(v)
	}
	return e.cachedBall(&e.ballRCache, v, e.r)
}

// cachedBall returns the sorted ball of the given radius around v, in
// original vertex ids, memoized in cache. Guarded queries compute it on
// the global graph; hand-built queries inside the bag 𝒳(v) (the two agree
// on the ball itself, since the bag contains it). Concurrent callers may
// compute the same ball twice; both results are identical and the losing
// store is harmless.
func (e *Engine) cachedBall(cache *sync.Map, v graph.V, radius int) []int32 {
	if b, ok := cache.Load(v); ok {
		return b.([]int32)
	}
	var out []int32
	if e.q.Guarded {
		bfs := e.BFS()
		out = append(out, bfs.Ball(v, radius)...)
		e.PutBFS(bfs)
	} else {
		bag := e.cov.Assign(v)
		sub := e.bagSubs[bag]
		bfs := e.bagBFS[bag].get()
		ball := bfs.Ball(sub.Local(v), radius)
		out = make([]int32, len(ball))
		for i, w := range ball {
			out[i] = int32(sub.Orig[int(w)])
		}
		e.bagBFS[bag].put(bfs)
	}
	slices.Sort(out)
	cache.Store(v, out)
	return out
}

// ExactEval is the literal G[N_ρ(ā_I)] semantics for hand-built
// (uncertified) queries, evaluated inside the bag of the first element.
//
//fod:ctxok one evaluation over the ρ-ball of ≤ k component values, memoized per tuple by the skeleton
func (e *Engine) ExactEval(c *answer.Comp, vals []graph.V) bool {
	bag := e.cov.Assign(vals[0])
	sub := e.bagSubs[bag]
	locals := make([]graph.V, len(vals))
	for i, v := range vals {
		lv := sub.Local(v)
		if lv < 0 {
			// The component values must all lie inside the bag of the
			// first element (they are within R(k−1) ≤ coverR of it); a
			// miss means the tuple violates the component's distance
			// pattern, so it is no solution.
			return false
		}
		locals[i] = lv
	}
	bfs := e.bagBFS[bag].get()
	ball := bfs.BallMulti(locals, e.rho)
	vs := make([]graph.V, len(ball))
	for i, w := range ball {
		vs[i] = int(w)
	}
	e.bagBFS[bag].put(bfs)
	ballSub := graph.Induce(sub.G, vs)
	ev := fo.NewCachedEvaluator(ballSub.G)
	env := fo.Env{}
	for i := range vals {
		env[c.Vars[i]] = ballSub.Local(locals[i])
	}
	return ev.Eval(c.Psi, env)
}

// Stats returns a snapshot of the current statistics. The snapshot is
// fully isolated: slice-typed fields are deep-copied, so neither engine
// internals nor other snapshots can observe mutations of the returned
// value (and vice versa).
func (e *Engine) Stats() Stats {
	s := e.stats
	s.StarterSizes = append([]int(nil), e.stats.StarterSizes...)
	s.Candidates, s.DeadEnds, s.LocalEvals, s.LocalEvalHits = e.Counters()
	return s
}

// Query returns the query the engine was built for.
func (e *Engine) Query() *LocalQuery { return e.q }
