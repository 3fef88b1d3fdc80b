package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/wcol"
)

// layerRun collects the per-layer numbers of a traced run: direct calls
// into the public functions of each layer, timed from outside, plus
// httptest replays through the server's handler.
type layerRun struct {
	spans *spanLog

	selectMS []float64
	builds   map[repro.EngineKind][]buildStat
	engine   map[repro.EngineKind]*engineStat

	pageReplays  []pageReplay
	pointMallocs []float64

	patchMS, applyMS, affected []float64
	applies, fallbacks         int
}

type buildStat struct{ ms, indexMiB, allocMiB float64 }

type engineStat struct {
	seekNS, nextNS, testNS, nextGeqNS int64
	seeks, answers, tests, nextGeqs   int64
	candidates, deadEnds              int64
	evals, hits                       int64
	countMS                           []float64

	coreDist, coreCover, coreKernel, coreStarter, coreSkip []float64
	coverBags, skipPointers                                []float64
	ballMS, ldStarterMS, ballEntries                       []float64
}

// pageReplay is one page replayed through the handler; engineNS is the
// same page replayed on an index built like the server's.
type pageReplay struct {
	q                int
	start            []int
	n                int
	handlerNS        int64
	engineNS         int64
	mallocs, bytes   uint64
	wire             int
	engineReplayDone bool
}

func newLayerRun(spans *spanLog) *layerRun {
	return &layerRun{
		spans:  spans,
		builds: map[repro.EngineKind][]buildStat{},
		engine: map[repro.EngineKind]*engineStat{
			repro.EngineCore:   {},
			repro.EngineLowDeg: {},
		},
	}
}

// replay sends one request straight to the handler twice — the first makes
// sure the index is resident — and measures the second: wall time, heap
// allocations and response bytes.
func replay(h http.Handler, method, path string, body []byte) (ns int64, mallocs, allocBytes uint64, resp []byte, code int) {
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		ns = time.Since(t0).Nanoseconds()
		runtime.ReadMemStats(&b)
		mallocs, allocBytes = b.Mallocs-a.Mallocs, b.TotalAlloc-a.TotalAlloc
		resp, code = rec.Body.Bytes(), rec.Code
	}
	return
}

// serveReplays replays a sample of the window's pages and point lookups
// through the handler while the server is still up.
func serveReplays(s *site, st *state, t *tape, lay *layerRun) {
	s.spans.on.Store(true)
	defer s.spans.on.Store(false)
	for _, i := range spread(len(t.pageRecs), 6) {
		p := t.pageRecs[i]
		var ns int64
		var mallocs, allocBytes uint64
		var body []byte
		var code int
		lay.spans.timed("layer.serve.page_replay", func() {
			ns, mallocs, allocBytes, body, code = replay(s.handler, "GET", p.path, nil)
		})
		var pd pageData
		if code != 200 || decodeData(body, &pd) != nil || pd.Count == 0 {
			continue
		}
		rp := pageReplay{q: p.q, start: p.start, n: pd.Count, handlerNS: ns,
			mallocs: mallocs, bytes: allocBytes, wire: len(body)}
		lay.pageReplays = append(lay.pageReplays, rp)
	}
	for _, i := range spread(len(t.pointRecs), 200) {
		p := t.pointRecs[i]
		path := "/v1/test"
		if p.next {
			path = "/v1/next"
		}
		_, mallocs, _, _, code := replay(s.handler, "POST", path, tupleBody(st.queries[p.q].id, p.tuple))
		if code == 200 {
			lay.pointMallocs = append(lay.pointMallocs, float64(mallocs))
		}
	}
}

// spread returns up to k indexes spread evenly over [0, n).
func spread(n, k int) []int {
	if n < k {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// layers is the direct-call half of a traced run: per replayed query, the
// selection estimates, a build like the server's and a build with the other
// engine (the check's reference, handed to refs), engine replays on both,
// and the mutation path on the workload's core index.
func layers(st *state, lay *layerRun, refs *referee) {
	lay.spans.on.Store(true)
	defer lay.spans.on.Store(false)
	ctx := context.Background()
	timedGraphs := map[string]bool{}
	for _, qi := range st.replay {
		q := st.queries[qi]
		g := st.graphs[q.graph]
		if !timedGraphs[q.graph] {
			timedGraphs[q.graph] = true
			for r := 0; r < 5; r++ {
				d := lay.spans.timed("layer.repro.select", func() {
					if g.MaxDegree() <= repro.AutoMaxDegree {
						wcol.DegeneracyFast(g)
					}
				})
				lay.selectMS = append(lay.selectMS, float64(d.Nanoseconds())/1e6)
			}
		}
		auto := autoEngine(g)
		served := lay.build(ctx, g, q, auto)
		ref := lay.build(ctx, g, q, otherEngine(auto))
		if served == nil || ref == nil {
			continue
		}
		rng := newRand(st.cfg.seed, qi)
		for _, ix := range []*repro.Index{served, ref} {
			lay.engineReplay(st, q, ix, rng)
		}
		for i := range lay.pageReplays {
			rp := &lay.pageReplays[i]
			if rp.q == qi && !rp.engineReplayDone {
				// Like the handler replay, the second of two runs is
				// measured: the first pays the fresh index's lazy set-up,
				// which the server's resident index has behind it.
				lay.spans.timed("layer.engine.page_replay", func() {
					for r := 0; r < 2; r++ {
						t0 := time.Now()
						refPage(served, q.arity(), rp.start, rp.n)
						rp.engineNS = time.Since(t0).Nanoseconds()
					}
				})
				rp.engineReplayDone = true
			}
		}
		if qi == st.mutateOn {
			core := served
			if core.Engine() != repro.EngineCore {
				core = ref
			}
			lay.mutationReplay(ctx, core, g, rng)
		}
		refs.put(qi, "", ref)
	}
}

// build measures one index build: wall time, bytes allocated while
// building, and live heap the finished index holds.
func (lay *layerRun) build(ctx context.Context, g *repro.Graph, q *query, eng repro.EngineKind) *repro.Index {
	collect()
	var a, b, c runtime.MemStats
	runtime.ReadMemStats(&a)
	var ix *repro.Index
	var err error
	d := lay.spans.timed("layer.repro.build."+string(eng), func() {
		ix, err = repro.Build(ctx, g, q.q, repro.WithEngine(eng), repro.WithMetrics(obs.New()))
	})
	if err != nil {
		return nil
	}
	runtime.ReadMemStats(&b)
	collect()
	runtime.ReadMemStats(&c)
	lay.builds[eng] = append(lay.builds[eng], buildStat{
		ms:       float64(d.Nanoseconds()) / 1e6,
		allocMiB: float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20),
		indexMiB: (float64(c.HeapAlloc) - float64(a.HeapAlloc)) / (1 << 20),
	})
	es := lay.engine[eng]
	if ls, ok := ix.LowDegStats(); ok {
		es.ballMS = append(es.ballMS, ms(ls.BallWall))
		es.ldStarterMS = append(es.ldStarterMS, ms(ls.StarterWall))
		es.ballEntries = append(es.ballEntries, float64(ls.BallEntries))
	} else {
		s := ix.Stats()
		es.coreDist = append(es.coreDist, ms(s.DistWall))
		es.coreCover = append(es.coreCover, ms(s.CoverWall))
		es.coreKernel = append(es.coreKernel, ms(s.KernelWall))
		es.coreStarter = append(es.coreStarter, ms(s.StarterWall))
		es.coreSkip = append(es.coreSkip, ms(s.SkipWall))
		es.coverBags = append(es.coverBags, float64(s.CoverBags))
		es.skipPointers = append(es.skipPointers, float64(s.SkipPointers))
	}
	runtime.KeepAlive(ix)
	return ix
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// engineReplay times the answering primitives of one index on seeded
// tuples: cursor seeks followed by runs of Next, Test and Next(tuple), and
// the first (uncached) SolutionCount.
func (lay *layerRun) engineReplay(st *state, q *query, ix *repro.Index, rng randSource) {
	es := lay.engine[ix.Engine()]
	n := st.graphs[q.graph].N()
	tuple := func() []int {
		t := make([]int, q.arity())
		for i := range t {
			t[i] = rng.Intn(n)
		}
		return t
	}
	s0 := ix.Stats()
	lay.spans.timed("layer.engine.iterate", func() {
		for r := 0; r < 4; r++ {
			a := tuple()
			t0 := time.Now()
			it := ix.IteratorFrom(a)
			t1 := time.Now()
			k := 0
			for ; k < 2500; k++ {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			es.seekNS += t1.Sub(t0).Nanoseconds()
			es.nextNS += time.Since(t1).Nanoseconds()
			es.seeks++
			es.answers += int64(k)
		}
	})
	s1 := ix.Stats()
	es.candidates += int64(s1.Candidates - s0.Candidates)
	es.deadEnds += int64(s1.DeadEnds - s0.DeadEnds)
	es.evals += int64(s1.LocalEvals - s0.LocalEvals)
	es.hits += int64(s1.LocalEvalHits - s0.LocalEvalHits)

	tuples := make([][]int, 500)
	for i := range tuples {
		tuples[i] = tuple()
	}
	d := lay.spans.timed("layer.engine.test", func() {
		for _, t := range tuples {
			ix.Test(t)
		}
	})
	es.testNS += d.Nanoseconds()
	es.tests += int64(len(tuples))
	d = lay.spans.timed("layer.engine.nextgeq", func() {
		for _, t := range tuples {
			ix.Next(t)
		}
	})
	es.nextGeqNS += d.Nanoseconds()
	es.nextGeqs += int64(len(tuples))
	d = lay.spans.timed("layer.engine.count", func() { ix.SolutionCount() })
	es.countMS = append(es.countMS, ms(d))
}

// mutationReplay advances a core index through the workload's edit
// pattern — add an edge between vertices 2–4 hops apart, remove it again —
// timing graph patching and the bag-scoped ApplyEdits separately.
func (lay *layerRun) mutationReplay(ctx context.Context, ix *repro.Index, g *repro.Graph, rng randSource) {
	cur := ix
	var u, v int
	for i := 0; i < 8; i++ {
		var e repro.Edit
		if i%2 == 0 {
			u, v = nearEdge(g, rng)
			e = repro.AddEdge(u, v)
		} else {
			e = repro.RemoveEdge(u, v)
		}
		before := cur.Stats().MutRebuilds
		d := lay.spans.timed("layer.graph.patch", func() { repro.PatchGraph(cur.Graph(), []repro.Edit{e}) }) //nolint:errcheck // the edit is valid by construction; ApplyEdits below reports errors
		lay.patchMS = append(lay.patchMS, ms(d))
		var next *repro.Index
		var err error
		d = lay.spans.timed("layer.mutate.apply", func() { next, err = cur.ApplyEdits(ctx, []repro.Edit{e}) })
		if err != nil {
			return
		}
		lay.applyMS = append(lay.applyMS, ms(d))
		s := next.Stats()
		lay.affected = append(lay.affected, float64(s.MutAffected))
		lay.applies++
		lay.fallbacks += s.MutRebuilds - before
		cur = next
	}
}

type randSource interface{ Intn(int) int }

func newRand(seed int64, salt int) *rand.Rand {
	return rand.New(rand.NewSource(seed*104729 + int64(salt)))
}

// metrics folds the layer run into per-layer metrics.
func (lay *layerRun) metrics(m map[string]float64) {
	m["repro.select_ms"] = median(lay.selectMS)
	var handler, engine, answers, mallocs, allocBytes, wire float64
	for _, rp := range lay.pageReplays {
		if !rp.engineReplayDone {
			continue
		}
		handler += float64(rp.handlerNS)
		engine += float64(rp.engineNS)
		answers += float64(rp.n)
		mallocs += float64(rp.mallocs)
		allocBytes += float64(rp.bytes)
		wire += float64(rp.wire)
	}
	if answers > 0 {
		pages := 0.0
		for _, rp := range lay.pageReplays {
			if rp.engineReplayDone {
				pages++
			}
		}
		m["serve.enumerate.ns_per_answer"] = (handler - engine) / answers
		m["serve.enumerate.allocs_per_page"] = mallocs / pages
		m["serve.enumerate.alloc_bytes_per_answer"] = allocBytes / answers
		m["serve.enumerate.wire_bytes_per_answer"] = wire / answers
	}
	m["serve.point.allocs_per_req"] = median(lay.pointMallocs)

	for eng, bs := range lay.builds {
		var b, ix, alloc []float64
		for _, s := range bs {
			b = append(b, s.ms)
			ix = append(ix, s.indexMiB)
			alloc = append(alloc, s.allocMiB)
		}
		m["repro.build_ms."+string(eng)] = median(b)
		m["repro.index_mib."+string(eng)] = median(ix)
		m["repro.build_alloc_mib."+string(eng)] = median(alloc)
	}
	for eng, es := range lay.engine {
		p := "engine." + string(eng) + "."
		if es.answers > 0 {
			m[p+"next_ns"] = float64(es.nextNS) / float64(es.answers)
			m[p+"candidates_per_answer"] = float64(es.candidates) / float64(es.answers)
		}
		if es.seeks > 0 {
			m[p+"seek_ns"] = float64(es.seekNS) / float64(es.seeks)
		}
		if es.candidates > 0 {
			m[p+"dead_end_ratio"] = float64(es.deadEnds) / float64(es.candidates)
		}
		if es.evals+es.hits > 0 {
			m[p+"local_eval_hit_ratio"] = float64(es.hits) / float64(es.evals+es.hits)
		}
		if es.tests > 0 {
			m[p+"test_ns"] = float64(es.testNS) / float64(es.tests)
		}
		if es.nextGeqs > 0 {
			m[p+"nextgeq_ns"] = float64(es.nextGeqNS) / float64(es.nextGeqs)
		}
		m[p+"count_ms"] = median(es.countMS)
		if eng == repro.EngineCore {
			m["core.preprocess.dist_ms"] = median(es.coreDist)
			m["core.preprocess.cover_ms"] = median(es.coreCover)
			m["core.preprocess.kernel_ms"] = median(es.coreKernel)
			m["core.preprocess.starter_ms"] = median(es.coreStarter)
			m["core.preprocess.skip_ms"] = median(es.coreSkip)
			m["core.cover_bags"] = median(es.coverBags)
			m["core.skip_pointers"] = median(es.skipPointers)
		} else {
			m["lowdeg.ball_ms"] = median(es.ballMS)
			m["lowdeg.starter_ms"] = median(es.ldStarterMS)
			m["lowdeg.ball_entries"] = median(es.ballEntries)
		}
	}
	m["graph.patch_ms"] = median(lay.patchMS)
	m["mutate.core.apply_ms_p50"] = median(lay.applyMS)
	m["mutate.core.affected_slots"] = median(lay.affected)
	if lay.applies > 0 {
		m["mutate.core.rebuild_fallback_ratio"] = float64(lay.fallbacks) / float64(lay.applies)
	}
}
