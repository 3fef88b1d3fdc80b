package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/graph"
	"repro/internal/wcol"
)

// query is one registered (graph, query) key.
type query struct {
	graph string
	src   string
	vars  []string
	q     *repro.Query
	id    string
}

func (q *query) arity() int { return len(q.vars) }

// state is a workload's inputs plus the client-side state that carries
// over from one window to the next (stream positions, rings, the writer's
// pending edge).
type state struct {
	cfg     config
	graphs  map[string]*repro.Graph
	queries []*query
	rngs    [clients]*rand.Rand
	steps   [clients]int

	// replay lists the queries whose indexes the layer run rebuilds;
	// mutateOn is the one whose core index its mutation replay advances,
	// and whose graph the writer edits.
	replay   []int
	mutateOn int

	cursors [clients][]stream // warm-read: one stream per query per client
	ring    [clients][]int    // cold-build: each client's half of the key ring
	pending *[2]int           // mutate-read: the edge the writer removes next
}

// stream is a client's position in one query's solution stream.
type stream struct {
	cursor string
	last   []int
}

func newState(cfg config, graphs map[string]*repro.Graph) *state {
	st := &state{cfg: cfg, graphs: graphs}
	for c := range st.rngs {
		st.rngs[c] = rand.New(rand.NewSource(cfg.seed*7919 + int64(c)))
	}
	return st
}

func (st *state) add(graphName, src string, vars ...string) {
	st.queries = append(st.queries, &query{graph: graphName, src: src, vars: vars,
		q: repro.MustParseQuery(src, vars...)})
}

// register posts every query (two at a time, as two clients would) and
// records the ids the server assigns.
func register(s *site, st *state) error {
	return parallel(len(st.queries), func(k *conn, i int) error {
		q := st.queries[i]
		body, _ := json.Marshal(map[string]any{"graph": q.graph, "query": q.src, "vars": q.vars})
		var resp struct {
			ID string `json:"id"`
		}
		if _, err := k.call("POST", "/v1/query", body, 0, &resp); err != nil {
			return err
		}
		q.id = resp.ID
		return nil
	}, s)
}

// parallel runs fn(i) for i < n on the benchmark's clients.
func parallel(n int, fn func(k *conn, i int) error, s *site) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := &conn{s: s}
			for i := c; i < n; i += clients {
				if err := fn(k, i); err != nil && errs[c] == nil {
					errs[c] = err
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (st *state) randTuple(rng *rand.Rand, q *query) []int {
	n := st.graphs[q.graph].N()
	t := make([]int, q.arity())
	for i := range t {
		t[i] = rng.Intn(n)
	}
	return t
}

// tupleBody is the JSON body of /v1/test and /v1/next.
func tupleBody(id string, t []int) []byte {
	var b strings.Builder
	b.WriteString(`{"id":"`)
	b.WriteString(id)
	b.WriteString(`","tuple":[`)
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteString(`]}`)
	return []byte(b.String())
}

type pageData struct {
	Version    int    `json:"version"`
	Count      int    `json:"count"`
	NextCursor string `json:"next_cursor"`
	Done       bool   `json:"done"`
}

// page fetches one /v1/enumerate page (resuming at cursor when non-empty)
// and records it for the check. start is the tuple the cursor resumes
// after (nil for a fresh stream).
func (k *conn) page(t *tape, st *state, qi int, cursor string, start []int, limit int) (pageData, pageRec, bool) {
	q := st.queries[qi]
	path := "/v1/enumerate?limit=" + strconv.Itoa(limit) + "&query=" + q.id
	if cursor != "" {
		path = "/v1/enumerate?limit=" + strconv.Itoa(limit) + "&cursor=" + url.QueryEscape(cursor)
	}
	op := k.s.spans.newOp()
	t.attempted++
	t0 := time.Now()
	status, b, d, err := k.do("GET", path, nil, op)
	k.s.spans.root(op, "client.page", t0, d)
	var pd pageData
	if err == nil && status != 200 {
		err = fmt.Errorf("GET %s: HTTP %d: %.200s", path, status, b)
	}
	if err != nil {
		t.fail(err)
		return pd, pageRec{}, false
	}
	d0 := time.Now()
	rec := pageRec{q: qi, path: path, start: start, limit: limit}
	dg := newDigest()
	err = decodePage(b, q.arity(), &pd, func(tu []int) {
		if dg.n == 0 || dg.n == 4999 {
			rec.samples = append(rec.samples, append([]int(nil), tu...))
		}
		dg.add(tu)
	})
	if err == nil && dg.n != pd.Count {
		err = fmt.Errorf("page lists %d tuples but counts %d", dg.n, pd.Count)
	}
	dd := time.Since(d0)
	k.s.spans.span(op, "client.decode", d0, dd)
	t.decodeNS += dd.Nanoseconds()
	t.decoded++
	if err != nil {
		t.fail(err)
		return pd, pageRec{}, false
	}
	rec.version, rec.n, rec.sum, rec.last, rec.done = pd.Version, dg.n, dg.sum, dg.last, pd.Done
	t.note(&t.reqs, d, 0)
	t.note(&t.pages, d, dg.n)
	t.pageRecs = append(t.pageRecs, rec)
	return pd, rec, true
}

// point sends one /v1/test (or /v1/next) and records the answer.
func (k *conn) point(t *tape, st *state, qi int, tuple []int, next bool) (int, bool) {
	q := st.queries[qi]
	path, name := "/v1/test", "client.test"
	if next {
		path, name = "/v1/next", "client.next"
	}
	op := k.s.spans.newOp()
	t.attempted++
	t0 := time.Now()
	var resp struct {
		Version  int  `json:"version"`
		Solution any  `json:"solution"`
		Found    bool `json:"found"`
	}
	d, err := k.call("POST", path, tupleBody(q.id, tuple), op, &resp)
	k.s.spans.root(op, name, t0, d)
	if err != nil {
		t.fail(err)
		return 0, false
	}
	rec := pointRec{q: qi, version: resp.Version, next: next, tuple: tuple}
	switch v := resp.Solution.(type) {
	case bool:
		rec.sol = v
	case []any:
		rec.sol = resp.Found
		for _, x := range v {
			f, _ := x.(float64)
			rec.got = append(rec.got, int(f))
		}
	case nil:
		rec.sol = false
	}
	t.note(&t.reqs, d, 0)
	t.note(&t.points, d, 0)
	t.pointRecs = append(t.pointRecs, rec)
	return resp.Version, true
}

// count sends one /v1/count and records the answer.
func (k *conn) count(t *tape, st *state, qi int) bool {
	q := st.queries[qi]
	op := k.s.spans.newOp()
	t.attempted++
	t0 := time.Now()
	var resp struct {
		Version int `json:"version"`
		Count   int `json:"count"`
	}
	d, err := k.call("POST", "/v1/count", []byte(`{"id":"`+q.id+`"}`), op, &resp)
	k.s.spans.root(op, "client.count", t0, d)
	if err != nil {
		t.fail(err)
		return false
	}
	t.note(&t.reqs, d, 0)
	t.note(&t.counts, d, 0)
	t.countRecs = append(t.countRecs, countRec{q: qi, version: resp.Version, n: resp.Count})
	return true
}

// mutate posts a one-edit batch and records the version it published.
func (k *conn) mutate(t *tape, graphName string, e repro.Edit) (int, bool) {
	op := k.s.spans.newOp()
	t.attempted++
	t0 := time.Now()
	body, _ := json.Marshal(map[string]any{"graph": graphName, "edits": []map[string]any{
		{"op": e.Op.String(), "u": e.U, "v": e.V},
	}})
	var resp struct {
		Version int  `json:"version"`
		NoOp    bool `json:"no_op"`
	}
	d, err := k.call("POST", "/v1/mutate", body, op, &resp)
	k.s.spans.root(op, "client.mutate", t0, d)
	if err == nil && resp.NoOp {
		err = fmt.Errorf("edit %v was a no-op", e)
	}
	if err != nil {
		t.fail(err)
		return 0, false
	}
	t.note(&t.reqs, d, 0)
	t.note(&t.mutates, d, 0)
	t.edits = append(t.edits, editRec{version: resp.Version, edit: e})
	return resp.Version, true
}

// nearEdge picks a vertex pair 2 to 4 hops apart in g, so adding the edge
// closes a short cycle and the edit stays local.
func nearEdge(g *repro.Graph, rng randSource) (int, int) {
	b := graph.NewBFS(g)
	for {
		u := rng.Intn(g.N())
		var far []int
		for _, w := range b.Ball(u, 4) {
			if b.Dist(int(w)) >= 2 {
				far = append(far, int(w))
			}
		}
		if len(far) > 0 {
			return u, far[rng.Intn(len(far))]
		}
	}
}

// autoEngine is the engine EngineAuto picks for g, computed with the same
// public estimates the facade uses; the reference index of a check is
// built with the other one.
func autoEngine(g *repro.Graph) repro.EngineKind {
	if g.MaxDegree() <= repro.AutoMaxDegree && wcol.DegeneracyFast(g) <= repro.AutoMaxDegeneracy {
		return repro.EngineLowDeg
	}
	return repro.EngineCore
}

func otherEngine(e repro.EngineKind) repro.EngineKind {
	if e == repro.EngineLowDeg {
		return repro.EngineCore
	}
	return repro.EngineLowDeg
}
