// Engine mutation: ApplyEdits derives the Theorem 2.3 index of an edited
// graph from the existing one, recomputing only what the edits can reach.
//
// The paper's dynamic claim (§3, Storing Theorem, and the n^ε update
// discussion) is that a single edit invalidates only the structure within
// a bounded radius of its endpoints. ApplyEdits realizes that layer by
// layer:
//
//   - graph: CSR rows of the endpoints are respliced (graph.Patch).
//   - distance index: ball rows within distR of an endpoint (dist.Patch).
//   - cover: containment repairs and exact kernel recomputation for bags
//     within reach of an endpoint (cover.Patch), with materialized
//     Storing-Theorem structures cloned and delta-updated via the O(n^ε)
//     Set/Delete of Theorem 3.1.
//   - starters: inStart[v] depends only on structure within
//     R(k−1) + ρ + distR of v (the component completion search spans
//     R(k−1), local evaluation adds ρ, distance atoms add distR), so only
//     vertices within D = Rk + ρ + distR of an edited vertex are re-tested.
//   - skip pointers: served through the delta overlay of internal/skip —
//     the old SC tables stay the base; the eligibility delta is the
//     starter diff ∪ the cover patch's KernelDelta.
//
// Every derived structure is copy-on-write: the receiver engine is never
// modified and keeps answering for its own version with byte-identical
// results — this is the MVCC read side the repro facade builds on.
//
// When an edit is not local — the cover or distance layouts refuse to
// patch, a clause guard flips, the accumulated skip delta outgrows its
// threshold, or the query is a hand-built non-guarded one — ApplyEdits
// falls back to a full Preprocess. Correctness never depends on the patch
// being taken; the differential and fuzz tests in this package compare
// both paths against each other.
package core

import (
	"context"
	"slices"
	"sort"
	"time"

	"repro/internal/answer"
	"repro/internal/cover"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/skip"
)

// ApplyEdits returns a new engine answering the query over the edited
// graph. The receiver is unchanged and remains fully usable (snapshot
// isolation); the two engines share every structure the edits did not
// reach. Enumeration over the result is byte-identical to enumeration
// over Preprocess(Patch(g, edits), q).
func (e *Engine) ApplyEdits(ctx context.Context, edits []graph.Edit) (*Engine, error) {
	start := time.Now()
	if ctx == nil {
		ctx = context.Background()
	}
	gOld := e.g
	gNew, err := graph.Patch(gOld, edits)
	if err != nil {
		return nil, err
	}

	// Effective touch sets: edits that net to no-ops reach nothing.
	edgeSrcs, colorChanged := effectiveTouch(gOld, gNew, edits)
	if len(edgeSrcs) == 0 && len(colorChanged) == 0 {
		// The batch nets out to the identity; the current engine IS the
		// engine of the "new" version.
		return e, nil
	}

	if !e.q.Guarded {
		// Hand-built queries evaluate inside materialized bag subgraphs
		// (bagSubs); patching those buys little over rebuilding. They are
		// also outside the compiler's certification, so take the simple
		// correct path.
		return e.rebuilt(ctx, gNew, start)
	}

	// Clause guards (the ξ^i_τ sentences of Theorem 5.4) are evaluated
	// per version; if the edit flips any guard the clause set changes
	// structurally and a patched engine has no frame to patch into.
	if e.q.Guards != nil && !slices.Equal(e.q.LiveClauses(gNew), e.liveIdx) {
		return e.rebuilt(ctx, gNew, start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Distance index; its radius is a function of the query alone.
	distR := e.q.distRadius()
	dixNew, ok := dist.Patch(e.dix, gOld, gNew, edgeSrcs)
	if !ok {
		dixNew = dist.New(gNew, distR, dist.Options{Workers: e.stats.Workers})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Cover with exact kernels. A refusal (edit avalanche) means the edit
	// is not local at cover scale; rebuilding everything is then honest.
	covNew, info, ok := e.cov.Patch(gOld, gNew, edgeSrcs)
	if !ok {
		return e.rebuilt(ctx, gNew, start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e2 := newEngine(gNew, e.q, dixNew)
	e2.cov = covNew
	e2.liveIdx = append([]int(nil), e.liveIdx...)
	e2.stats = Stats{
		CoverRadius: e.stats.CoverRadius,
		CoverBags:   covNew.NumBags(),
		CoverDegree: covNew.Degree(),
		Workers:     e.stats.Workers,
		Mutations:   e.stats.Mutations + 1,
		MutRebuilds: e.stats.MutRebuilds,
	}

	// Starter-affected region: D = Rk + ρ + distR around every effectively
	// edited vertex, in the old and the new graph (R(k−1) + ρ + distR is
	// the exact reach; the extra R is safety margin at negligible cost).
	touched := append(append([]graph.V(nil), edgeSrcs...), colorChanged...)
	sort.Ints(touched)
	D := e.r*e.k + e.rho + distR
	n := gNew.N()
	inAffected := make([]bool, n)
	var affected []graph.V
	for _, g := range []*graph.Graph{gOld, gNew} {
		bfs := graph.NewBFS(g)
		for _, w := range bfs.BallMulti(touched, D) {
			if !inAffected[w] {
				inAffected[w] = true
				affected = append(affected, int(w))
			}
		}
	}
	sort.Ints(affected)
	e2.stats.MutAffected = len(affected)

	pool := par.NewPool(e.stats.Workers)
	for _, rt := range e.Clauses {
		rt2 := &answer.Clause{Type: rt.Type, CompOf: rt.CompOf, FirstOf: rt.FirstOf}
		for _, c := range rt.Comps {
			c2, x2, err := e2.patchComp(ctx, c, e.caseI[c.ID], info, affected, pool)
			if err != nil {
				return nil, err
			}
			rt2.Comps = append(rt2.Comps, c2)
			e2.caseI = append(e2.caseI, x2)
			e2.stats.StarterSizes = append(e2.stats.StarterSizes, len(c2.Starter))
			if x2.skip != nil {
				e2.stats.SkipPointers += x2.skip.Size()
			}
		}
		e2.Clauses = append(e2.Clauses, rt2)
	}
	e2.stats.MutWall = time.Since(start)
	e2.exportInstruments(e.Obs())
	return e2, nil
}

// patchComp derives the runtime of one component for the mutated engine:
// re-test starters in the affected region, overlay (or rebuild) the skip
// pointers, and resplice the per-kernel starter lists.
func (e2 *Engine) patchComp(ctx context.Context, c *answer.Comp, x caseI, info *cover.PatchInfo, affected []graph.V, pool *par.Pool) (*answer.Comp, caseI, error) {
	c2 := &answer.Comp{ID: c.ID, Positions: c.Positions, Type: c.Type, Psi: c.Psi, Vars: c.Vars, Last: c.Last}
	// Copy-on-write starter bitmap; only the affected slots are re-tested.
	// StarterReady stays false during the recompute so local evaluation
	// cannot short-circuit through the half-updated bitmap.
	c2.InStart = append([]bool(nil), c.InStart...)
	pool.ForEach(len(affected), func(i int) {
		c2.InStart[affected[i]] = e2.Opens(c2, affected[i])
	})
	var starterDiff []graph.V
	for _, v := range affected {
		if c.InStart[v] != c2.InStart[v] {
			starterDiff = append(starterDiff, v)
		}
	}
	c2.CollectStarter()
	if err := ctx.Err(); err != nil {
		return nil, caseI{}, err
	}

	// Skip pointers: overlay while the accumulated delta stays small,
	// rebuild past the threshold (the overlay's scan cost is O(|delta|)).
	var x2 caseI
	if e2.k >= 2 {
		delta := mergeSortedV(starterDiff, info.KernelDelta)
		if x.skip != nil && x.skip.DeltaLen()+len(delta) <= skip.RebuildThreshold(e2.g.N()) {
			x2.skip = x.skip.WithDelta(e2.cov, c2.Starter, delta)
		} else {
			x2.skip = skip.New(e2.g, e2.cov, e2.k-1, c2.Starter)
		}
	}

	// byKernel rows change only for bags whose kernel changed, bags the
	// patch created, and bags whose kernel contains a starter-diff vertex.
	nb := e2.cov.NumBags()
	x2.byKernel = make([][]graph.V, nb)
	copy(x2.byKernel, x.byKernel)
	redo := make(map[int]bool, len(info.KernelChanged)+len(info.NewBags))
	for _, b := range info.KernelChanged {
		redo[b] = true
	}
	for _, b := range info.NewBags {
		redo[b] = true
	}
	for _, v := range starterDiff {
		for _, b := range e2.cov.KernelsOf(v) {
			redo[int(b)] = true
		}
	}
	redoList := make([]int, 0, len(redo))
	for b := range redo { //fod:sorted — sorted immediately below
		redoList = append(redoList, b)
	}
	sort.Ints(redoList)
	for _, b := range redoList {
		var row []graph.V
		for _, v := range e2.cov.Kernel(b) {
			if c2.InStart[v] {
				row = append(row, v)
			}
		}
		x2.byKernel[b] = row
	}
	return c2, x2, nil
}

// rebuilt is the full-Preprocess fallback, carrying the mutation counters
// forward so Stats still reports the engine's history.
func (e *Engine) rebuilt(ctx context.Context, gNew *graph.Graph, start time.Time) (*Engine, error) {
	e2, err := Preprocess(gNew, e.q, Options{
		Parallelism: e.stats.Workers,
		Ctx:         ctx,
		Obs:         e.Obs(),
	})
	if err != nil {
		return nil, err
	}
	e2.stats.Mutations = e.stats.Mutations + 1
	e2.stats.MutRebuilds = e.stats.MutRebuilds + 1
	e2.stats.MutWall = time.Since(start)
	return e2, nil
}

// effectiveTouch compares old and new graphs at the edited positions and
// returns the endpoints of edges that actually changed and the vertices
// whose color set actually changed, each sorted and deduplicated.
func effectiveTouch(gOld, gNew *graph.Graph, edits []graph.Edit) (edgeSrcs, colorChanged []graph.V) {
	es := map[graph.V]bool{}
	cs := map[graph.V]bool{}
	for _, ed := range edits {
		switch ed.Op {
		case graph.AddEdge, graph.RemoveEdge:
			if gOld.HasEdge(ed.U, ed.V) != gNew.HasEdge(ed.U, ed.V) {
				es[ed.U] = true
				es[ed.V] = true
			}
		case graph.AddColor, graph.RemoveColor:
			if gOld.HasColor(ed.U, ed.Color) != gNew.HasColor(ed.U, ed.Color) {
				cs[ed.U] = true
			}
		}
	}
	for v := range es { //fod:sorted — sorted immediately below
		edgeSrcs = append(edgeSrcs, v)
	}
	for v := range cs { //fod:sorted — sorted immediately below
		if !es[v] {
			colorChanged = append(colorChanged, v)
		}
	}
	sort.Ints(edgeSrcs)
	sort.Ints(colorChanged)
	return edgeSrcs, colorChanged
}

// mergeSortedV unions two sorted vertex lists.
func mergeSortedV(a, b []graph.V) []graph.V {
	out := make([]graph.V, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
