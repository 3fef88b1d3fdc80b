package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lowdeg"
)

// Option tunes Build (functional options over the former IndexOptions).
type Option func(*IndexOptions)

// WithParallelism bounds the preprocessing worker count. 0 (the default)
// selects runtime.GOMAXPROCS(0); 1 forces the sequential build. The
// resulting index is identical for every setting — parallelism only
// changes build wall time.
func WithParallelism(workers int) Option {
	return func(o *IndexOptions) { o.Parallelism = workers }
}

// WithMetrics instruments the index with the given registry; see
// IndexOptions.Metrics.
func WithMetrics(reg *Metrics) Option {
	return func(o *IndexOptions) { o.Metrics = reg }
}

// WithEngine selects the enumeration engine: EngineCore (the default),
// EngineLowDeg, or EngineAuto, which measures the graph's maximum degree
// and degeneracy and routes bounded-degree inputs to the cheaper
// low-degree engine. The routing decision is recorded on the index; see
// Index.Selection.
func WithEngine(kind EngineKind) Option {
	return func(o *IndexOptions) { o.Engine = kind }
}

// Build performs the pseudo-linear preprocessing of Theorem 2.3 and is the
// single v1 entry point for index construction: context-bounded, tuned by
// functional options.
//
//	ix, err := repro.Build(ctx, g, q)
//	ix, err := repro.Build(ctx, g, q, repro.WithParallelism(1), repro.WithMetrics(reg))
//
// The context bounds preprocessing (checked between phases); pass
// context.Background() for an unbounded build. BuildIndex, BuildIndexOpt,
// and BuildIndexCtx are deprecated wrappers around this function.
func Build(ctx context.Context, g *Graph, q *Query, opts ...Option) (*Index, error) {
	var o IndexOptions
	for _, opt := range opts {
		opt(&o)
	}
	return BuildIndexCtx(ctx, g, q, o)
}

// EditOp is one kind of graph mutation; see the Edit constructors.
type EditOp = graph.EditOp

// Edit is one mutation of a colored graph: an edge inserted or deleted, or
// a color added to / removed from a vertex. The vertex set is fixed, so
// vertex ids — and with them every lexicographic guarantee of the
// enumeration layer — are stable across versions.
type Edit = graph.Edit

// Edit operation kinds, re-exported for constructing Edit values directly;
// the constructors below are the more convenient path.
const (
	OpAddEdge     = graph.AddEdge
	OpRemoveEdge  = graph.RemoveEdge
	OpAddColor    = graph.AddColor
	OpRemoveColor = graph.RemoveColor
)

// AddEdge returns the edit inserting the undirected edge {u, v}.
// Inserting a present edge or a self-loop is a no-op.
func AddEdge(u, v int) Edit { return Edit{Op: graph.AddEdge, U: u, V: v} }

// RemoveEdge returns the edit deleting the undirected edge {u, v};
// deleting an absent edge is a no-op.
func RemoveEdge(u, v int) Edit { return Edit{Op: graph.RemoveEdge, U: u, V: v} }

// AddColor returns the edit adding color c to vertex v.
func AddColor(v, c int) Edit { return Edit{Op: graph.AddColor, U: v, Color: c} }

// RemoveColor returns the edit removing color c from vertex v.
func RemoveColor(v, c int) Edit { return Edit{Op: graph.RemoveColor, U: v, Color: c} }

// PatchGraph applies edits to g copy-on-write and returns the edited
// graph; g is unchanged. The result is byte-identical to rebuilding the
// same edge and color sets through a GraphBuilder.
func PatchGraph(g *Graph, edits []Edit) (*Graph, error) { return graph.Patch(g, edits) }

// ApplyEdits returns a new index answering the query over the edited
// graph, recomputing only the structure the edits can reach (the n^ε
// update regime of the paper's §3): the affected distance-index rows,
// cover bags and kernels, starter slots, and per-kernel lists are patched;
// skip pointers are served through an exact delta overlay. The receiver is
// unchanged and keeps enumerating its own version with byte-identical
// answers — in-flight iterators over it are undisturbed (MVCC snapshot
// isolation; see LiveIndex for the version-managed wrapper).
//
// Edits that are not local (a clause guard flips, a layout refuses to
// patch, the accumulated deltas outgrow their thresholds) transparently
// fall back to a full rebuild; Stats().MutRebuilds counts those.
func (ix *Index) ApplyEdits(ctx context.Context, edits []Edit) (*Index, error) {
	var next engine
	var err error
	switch e := ix.eng.(type) {
	case *core.Engine:
		next, err = e.ApplyEdits(ctx, edits)
	case *lowdeg.Engine:
		// The low-degree engine has no incremental path: a real edit is a
		// full (but linear, hence cheap) rebuild.
		next, err = e.ApplyEdits(ctx, edits)
	}
	if err != nil {
		return nil, err
	}
	if next == ix.eng {
		// The batch netted out to the identity; the index is its own next
		// version.
		return ix, nil
	}
	return &Index{eng: next, sel: ix.sel, k: ix.k, q: ix.q, version: ix.version + 1}, nil
}

// Mutate is ApplyEdits under the name the serving layer's endpoint uses.
func (ix *Index) Mutate(ctx context.Context, edits []Edit) (*Index, error) {
	return ix.ApplyEdits(ctx, edits)
}

// Graph returns the graph this index version answers over.
func (ix *Index) Graph() *Graph { return ix.eng.Graph() }

// Version returns the index's mutation generation: 0 for a freshly built
// index, incremented by every effective ApplyEdits.
func (ix *Index) Version() int { return ix.version }
