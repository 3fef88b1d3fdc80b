package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
)

// workload is one traffic mix against one set of generated inputs.
type workload interface {
	name() string
	// setUp generates the inputs from the seed, starts a fresh server and
	// registers (and so builds) every query: the set-up time a deployment
	// pays before its first answer.
	setUp(cfg config, spans *spanLog) (*site, *state, error)
	// drive is closed-loop client c: each request waits for the previous
	// answer. It returns once ctx is done (cold-build: once its current
	// block of keys is through).
	drive(ctx context.Context, st *state, c int, k *conn, t *tape)
	// prepare readies the server for a window.
	prepare(k *conn) error
	// final sends the post-window probes the check needs, if any.
	final(st *state, k *conn, t *tape)
}

var workloads = map[string]workload{
	"warm-read":   warmRead{},
	"cold-build":  coldBuild{},
	"mutate-read": mutateRead{},
}

// Both dense queries on both graphs; the sparse one is local (answers lie
// within distance 2), the dense one has Θ(n²) answers.
const (
	denseQuery  = "dist(x,y) > 2 & C0(y)"
	sparseQuery = "dist(x,y) <= 2 & C0(x) & C1(y)"
)

// warmRead pages through four resident indexes and probes them with point
// lookups: serve encoding and engine answering do the work, preprocessing
// is absent.
type warmRead struct{}

func (warmRead) name() string { return "warm-read" }

func (warmRead) setUp(cfg config, spans *spanLog) (*site, *state, error) {
	n := 65536 / cfg.scale
	st := newState(cfg, map[string]*repro.Graph{
		"road": repro.Generate("grid", n, repro.GenOptions{Colors: 2, Seed: cfg.seed}),
		"tree": repro.Generate("rtree", n, repro.GenOptions{Colors: 2, Seed: cfg.seed}),
	})
	for _, g := range []string{"road", "tree"} {
		for _, q := range []string{denseQuery, sparseQuery} {
			st.add(g, q, "x", "y")
		}
	}
	st.replay = []int{0, 1, 2, 3}
	st.mutateOn = 2
	for c := range st.cursors {
		st.cursors[c] = make([]stream, len(st.queries))
	}
	s, err := startSite(st.graphs, spans)
	if err != nil {
		return nil, nil, err
	}
	if err := register(s, st); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, st, nil
}

// drive: per query, one 10⁴-answer page following the client's stream
// (restarting once it is done), then 16 point lookups at seeded tuples.
func (warmRead) drive(ctx context.Context, st *state, c int, k *conn, t *tape) {
	rng := st.rngs[c]
	for ctx.Err() == nil {
		qi := (st.steps[c] + 2*c) % len(st.queries)
		st.steps[c]++
		sm := &st.cursors[c][qi]
		pd, rec, ok := k.page(t, st, qi, sm.cursor, sm.last, 10000)
		switch {
		case !ok || pd.Done:
			*sm = stream{}
		default:
			*sm = stream{cursor: pd.NextCursor, last: rec.last}
		}
		for j := 0; j < 16 && ctx.Err() == nil; j++ {
			k.point(t, st, qi, st.randTuple(rng, st.queries[qi]), j%2 == 1)
		}
	}
}

func (warmRead) prepare(*conn) error { return nil }

func (warmRead) final(*state, *conn, *tape) {}

// coldTemplates are instantiated with four color pairs on two graphs: 48
// keys, six times the cache.
var coldTemplates = []struct {
	src  string
	vars []string
}{
	{"dist(x,y) > 2 & C%[1]d(y)", []string{"x", "y"}},
	{"dist(x,y) <= 2 & C%[1]d(x) & C%[2]d(y)", []string{"x", "y"}},
	{"E(x,y) & C%[1]d(x) & ~C%[2]d(y)", []string{"x", "y"}},
	{"dist(x,y) > 1 & C%[1]d(x) & C%[2]d(y)", []string{"x", "y"}},
	{"C%[1]d(x) & exists z (E(x,z) & C%[2]d(z))", []string{"x"}},
	{"dist(x,y) <= 1 & C%[2]d(y) | x = y & C%[1]d(x)", []string{"x", "y"}},
}

var coldColors = [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}

// coldBuild walks a key ring six times the cache size: every request
// misses, so selection and preprocessing in both engines do the work.
type coldBuild struct{}

func (coldBuild) name() string { return "cold-build" }

func (coldBuild) setUp(cfg config, spans *spanLog) (*site, *state, error) {
	n := 16384 / cfg.scale
	st := newState(cfg, map[string]*repro.Graph{
		"road": repro.Generate("grid", n, repro.GenOptions{Colors: 4, Seed: cfg.seed}),
		"tree": repro.Generate("rtree", n, repro.GenOptions{Colors: 4, Seed: cfg.seed}),
	})
	// Client c walks the keys of color pairs c and c+2, ordered pair →
	// template → graph, so any stretch of its half mixes both graphs and
	// all templates.
	for pi, cp := range coldColors {
		c := pi % clients
		for ti, tpl := range coldTemplates {
			for _, g := range []string{"road", "tree"} {
				qi := len(st.queries)
				if g == "tree" && pi == 0 && ti == 0 {
					st.mutateOn = qi
				}
				if pi == 0 {
					st.replay = append(st.replay, qi)
				}
				st.add(g, fmt.Sprintf(tpl.src, cp[0], cp[1]), tpl.vars...)
				st.ring[c] = append(st.ring[c], qi)
			}
		}
	}
	s, err := startSite(st.graphs, spans)
	if err != nil {
		return nil, nil, err
	}
	if err := register(s, st); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, st, nil
}

// coldBlock is the keys of one color pair: every template on both graphs.
var coldBlock = 2 * len(coldTemplates)

// drive walks the client's half of the ring with GET /v1/enumerate?limit=100:
// every request misses and pays selection, a build and the first page.
// Build costs differ tenfold between keys, so the client stops only at the
// end of a block: every window then carries the same mix of keys.
func (coldBuild) drive(ctx context.Context, st *state, c int, k *conn, t *tape) {
	half := st.ring[c]
	for ctx.Err() == nil || st.steps[c]%coldBlock != 0 {
		k.page(t, st, half[st.steps[c]%len(half)], "", nil, 100)
		st.steps[c]++
	}
}

// prepare starts every window cold, whatever set-up or the previous window
// left resident.
func (coldBuild) prepare(k *conn) error { return flush(k) }

func (coldBuild) final(*state, *conn, *tape) {}

// mutateRead runs a writer beside a reader on one core-routed graph: the
// incremental update path (ApplyEdits through the cache's migrate tier,
// MVCC versions) next to point reads at the head.
type mutateRead struct{}

func (mutateRead) name() string { return "mutate-read" }

func (mutateRead) setUp(cfg config, spans *spanLog) (*site, *state, error) {
	n := 65536 / cfg.scale
	st := newState(cfg, map[string]*repro.Graph{
		"tree": repro.Generate("rtree", n, repro.GenOptions{Colors: 2, Seed: cfg.seed}),
	})
	st.add("tree", denseQuery, "x", "y")
	st.replay = []int{0}
	st.mutateOn = 0
	s, err := startSite(st.graphs, spans)
	if err != nil {
		return nil, nil, err
	}
	if err := register(s, st); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, st, nil
}

// drive: client 0 is the writer, client 1 the reader, which sends tests at
// the head without pause.
func (mutateRead) drive(ctx context.Context, st *state, c int, k *conn, t *tape) {
	rng := st.rngs[c]
	if c != 0 {
		for ctx.Err() == nil {
			k.point(t, st, 0, st.randTuple(rng, st.queries[0]), false)
		}
		return
	}
	for ctx.Err() == nil {
		writerStep(st, k, t, rng)
	}
}

// writerStep is one step of mutate-read's writer on the graph of query
// st.mutateOn: one edit (alternately adding a seeded edge between vertices
// 2–4 hops apart and removing it again, so the graph stays stationary),
// then a test and a 100-answer page at the new head, then a count.
func writerStep(st *state, k *conn, t *tape, rng *rand.Rand) {
	q := st.queries[st.mutateOn]
	var e repro.Edit
	if st.pending != nil {
		e = repro.RemoveEdge(st.pending[0], st.pending[1])
		st.pending = nil
	} else {
		u, v := nearEdge(st.graphs[q.graph], rng)
		e = repro.AddEdge(u, v)
		st.pending = &[2]int{u, v}
	}
	t0 := time.Now()
	if _, ok := k.mutate(t, q.graph, e); !ok {
		return
	}
	k.point(t, st, st.mutateOn, st.randTuple(rng, q), false)
	if _, _, ok := k.page(t, st, st.mutateOn, "", nil, 100); ok {
		t.note(&t.visibles, time.Since(t0), 0)
	}
	k.count(t, st, st.mutateOn)
}

func (mutateRead) prepare(*conn) error { return nil }

// final probes the head version after the window; the check compares these
// answers with a fresh build over the whole edit log.
func (mutateRead) final(st *state, k *conn, t *tape) {
	k.page(t, st, 0, "", nil, 100)
	k.count(t, st, 0)
	rng := st.rngs[0]
	for i := 0; i < 8; i++ {
		k.point(t, st, 0, st.randTuple(rng, st.queries[0]), i%2 == 1)
	}
}
