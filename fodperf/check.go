package main

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro"
	"repro/internal/graph"
	"repro/internal/naive"
)

// Records of the answers a window received. The check runs after the
// window, once the server is gone, so it never competes with the server
// for the two cores.
type pageRec struct {
	q, version int
	path       string // request path, for the serve replays
	start      []int  // the tuple the cursor resumes after; nil for a fresh stream
	limit      int
	n          int
	sum        uint64
	last       []int
	done       bool
	samples    [][]int // page tuples for the naive spot check
}

type pointRec struct {
	q, version int
	next       bool // /v1/next, else /v1/test
	tuple      []int
	sol        bool  // test: membership; next: found
	got        []int // next: the solution returned
}

type countRec struct{ q, version, n int }

// editRec is a batch the writer published: version is the one it produced.
type editRec struct {
	version int
	edit    repro.Edit
}

// variants maps each version of a query's graph to the graph it is. Only
// mutate-read has versions past 0; its writer alternates adding an edge
// and removing it again, so every version is the base graph or the base
// graph plus one edge.
type variants struct {
	edge map[int]*repro.Edit // version → the edge present, nil for the base graph
}

func newVariants(edits []editRec) variants {
	v := variants{edge: map[int]*repro.Edit{0: nil}}
	for i := range edits {
		e := edits[i].edit
		if e.Op == graph.AddEdge {
			v.edge[edits[i].version] = &e
		} else {
			v.edge[edits[i].version] = nil
		}
	}
	return v
}

// key returns the variant name of a version ("" for the base graph) and
// false for a version no recorded edit produced.
func (v variants) key(version int) (string, bool) {
	e, ok := v.edge[version]
	if !ok {
		return "", false
	}
	if e == nil {
		return "", true
	}
	return fmt.Sprintf("+%d-%d", e.U, e.V), true
}

func (v variants) graph(base *repro.Graph, version int) (*repro.Graph, error) {
	e := v.edge[version]
	if e == nil {
		return base, nil
	}
	return repro.PatchGraph(base, []repro.Edit{*e})
}

// referee hands out reference indexes: built with the engine the server's
// auto selection did not choose, so every answer is checked against the
// other engine.
type referee struct {
	mu       sync.Mutex
	prebuilt map[string]*repro.Index // (query, variant) → index the layer run already built
}

func newReferee() *referee { return &referee{prebuilt: map[string]*repro.Index{}} }

func (r *referee) put(qi int, variant string, ix *repro.Index) {
	r.mu.Lock()
	r.prebuilt[fmt.Sprint(qi, variant)] = ix
	r.mu.Unlock()
}

func (r *referee) index(st *state, qi int, variant string, g *repro.Graph) (*repro.Index, error) {
	r.mu.Lock()
	ix, ok := r.prebuilt[fmt.Sprint(qi, variant)]
	delete(r.prebuilt, fmt.Sprint(qi, variant))
	r.mu.Unlock()
	if ok {
		return ix, nil
	}
	return repro.Build(context.Background(), g, st.queries[qi].q, repro.WithEngine(otherEngine(autoEngine(g))))
}

// group is every record answered by one (query, graph variant).
type group struct {
	q       int
	variant string
	version int // any version of the variant
	pages   []*pageRec
	points  []*pointRec
	counts  []*countRec
}

// verify checks every recorded answer against the reference index of its
// (query, graph variant), spot-checks sampled tuples with the naive
// oracle, and for a run that wrote, checks the final version against a
// fresh core build over the whole edit log. It returns one line per wrong
// answer.
func verify(st *state, refs *referee, t *tape) []string {
	vs := newVariants(t.edits)
	groups := map[string]*group{}
	var bad []string
	get := func(q, version int) *group {
		key, ok := vs.key(version)
		if !ok {
			bad = append(bad, fmt.Sprintf("query %d answered at version %d, which no recorded edit published", q, version))
			return nil
		}
		id := fmt.Sprint(q, key)
		gr := groups[id]
		if gr == nil {
			gr = &group{q: q, variant: key, version: version}
			groups[id] = gr
		}
		return gr
	}
	for i := range t.pageRecs {
		if gr := get(t.pageRecs[i].q, t.pageRecs[i].version); gr != nil {
			gr.pages = append(gr.pages, &t.pageRecs[i])
		}
	}
	for i := range t.pointRecs {
		if gr := get(t.pointRecs[i].q, t.pointRecs[i].version); gr != nil {
			gr.points = append(gr.points, &t.pointRecs[i])
		}
	}
	for i := range t.countRecs {
		if gr := get(t.countRecs[i].q, t.countRecs[i].version); gr != nil {
			gr.counts = append(gr.counts, &t.countRecs[i])
		}
	}
	order := make([]*group, 0, len(groups))
	for _, gr := range groups {
		order = append(order, gr)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].q != order[j].q {
			return order[i].q < order[j].q
		}
		return order[i].variant < order[j].variant
	})

	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan *group)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gr := range next {
				errs := checkGroup(st, refs, vs, gr)
				mu.Lock()
				bad = append(bad, errs...)
				mu.Unlock()
			}
		}()
	}
	for _, gr := range order {
		next <- gr
	}
	close(next)
	wg.Wait()
	if len(t.edits) > 0 {
		bad = append(bad, checkFinal(st, t)...)
	}
	return bad
}

func checkGroup(st *state, refs *referee, vs variants, gr *group) []string {
	q := st.queries[gr.q]
	base := st.graphs[q.graph]
	g, err := vs.graph(base, gr.version)
	if err != nil {
		return []string{fmt.Sprintf("query %d variant %q: %v", gr.q, gr.variant, err)}
	}
	ref, err := refs.index(st, gr.q, gr.variant, g)
	if err != nil {
		return []string{fmt.Sprintf("query %d variant %q: reference build: %v", gr.q, gr.variant, err)}
	}
	where := func(kind string) string { return fmt.Sprintf("%s of %q on %s%s", kind, q.src, q.graph, gr.variant) }
	var bad []string
	seen := map[string]error{}
	var spot [][]int // tuples the server called solutions
	var spotNo [][]int
	for _, p := range gr.pages {
		key := fmt.Sprint(p.start, p.limit)
		err, ok := seen[key]
		if !ok {
			err = checkPage(ref, q.arity(), p)
			seen[key] = err
		}
		if err != nil {
			bad = append(bad, where("page")+": "+err.Error())
		}
		spot = append(spot, p.samples...)
	}
	for _, p := range gr.points {
		if p.next {
			want, found := ref.Next(p.tuple)
			if found != p.sol || (found && !equal(want, p.got)) {
				bad = append(bad, fmt.Sprintf("%s: next(%v) = %v %v, reference %v %v", where("next"), p.tuple, p.got, p.sol, want, found))
			}
			if found {
				spot = append(spot, p.got)
			}
			continue
		}
		if want := ref.Test(p.tuple); want != p.sol {
			bad = append(bad, fmt.Sprintf("%s: test(%v) = %v, reference %v", where("test"), p.tuple, p.sol, want))
		}
		if p.sol {
			spot = append(spot, p.tuple)
		} else {
			spotNo = append(spotNo, p.tuple)
		}
	}
	if len(gr.counts) > 0 {
		want, _ := ref.SolutionCount()
		for _, c := range gr.counts {
			if c.n != want {
				bad = append(bad, fmt.Sprintf("%s: %d, reference %d", where("count"), c.n, want))
			}
		}
	}
	// The naive oracle evaluates the formula itself on a few tuples, so a
	// defect shared by both engines still shows.
	for i, t := range thin(spot, 8) {
		if !naive.TestFO(g, q.q.Phi, q.q.Vars, t) {
			bad = append(bad, fmt.Sprintf("%s: served %v (sample %d), naive oracle says it is no solution", where("answer"), t, i))
		}
	}
	for _, t := range thin(spotNo, 8) {
		if naive.TestFO(g, q.q.Phi, q.q.Vars, t) {
			bad = append(bad, fmt.Sprintf("%s: test(%v) = false, naive oracle says it is a solution", where("test"), t))
		}
	}
	return bad
}

// checkPage replays a page on the reference index: resume at start (or the
// first tuple), skip start itself, take limit tuples.
func checkPage(ref *repro.Index, arity int, p *pageRec) error {
	want := refPage(ref, arity, p.start, p.limit)
	it := want.it
	done := !it.HasNext()
	switch {
	case want.n != p.n:
		return fmt.Errorf("after %v: %d tuples, reference %d", p.start, p.n, want.n)
	case want.sum != p.sum:
		return fmt.Errorf("after %v: tuples differ from the reference (last %v, reference %v)", p.start, p.last, want.last)
	case done != p.done:
		return fmt.Errorf("after %v: done = %v, reference %v", p.start, p.done, done)
	}
	return nil
}

type refPageResult struct {
	digest
	it repro.Cursor
}

func refPage(ix *repro.Index, arity int, start []int, limit int) refPageResult {
	from := start
	if from == nil {
		from = make([]int, arity)
	}
	it := ix.IteratorFrom(from)
	d := newDigest()
	skip := start != nil
	for d.n < limit {
		t, ok := it.Next()
		if !ok {
			break
		}
		if skip {
			skip = false
			if equal(t, start) {
				continue
			}
		}
		d.add(t)
	}
	return refPageResult{digest: d, it: it}
}

// checkFinal compares the answers the edited query received at the last
// version with a fresh core build over repro.PatchGraph of the whole edit
// log.
func checkFinal(st *state, t *tape) []string {
	edits := append([]editRec(nil), t.edits...)
	sort.Slice(edits, func(i, j int) bool { return edits[i].version < edits[j].version })
	head := edits[len(edits)-1].version
	log := make([]repro.Edit, len(edits))
	for i, e := range edits {
		log[i] = e.edit
	}
	q := st.queries[st.mutateOn]
	g, err := repro.PatchGraph(st.graphs[q.graph], log)
	if err != nil {
		return []string{"final version: patching the edit log: " + err.Error()}
	}
	fresh, err := repro.Build(context.Background(), g, q.q, repro.WithEngine(repro.EngineCore))
	if err != nil {
		return []string{"final version: fresh build: " + err.Error()}
	}
	var bad []string
	probed := 0
	for i := range t.pageRecs {
		if p := &t.pageRecs[i]; p.q == st.mutateOn && p.version == head {
			probed++
			if err := checkPage(fresh, q.arity(), p); err != nil {
				bad = append(bad, "final version page vs fresh build: "+err.Error())
			}
		}
	}
	want, _ := fresh.SolutionCount()
	for _, c := range t.countRecs {
		if c.q == st.mutateOn && c.version == head {
			probed++
			if c.n != want {
				bad = append(bad, fmt.Sprintf("final version count %d, fresh build %d", c.n, want))
			}
		}
	}
	for _, p := range t.pointRecs {
		if p.q == st.mutateOn && p.version == head && !p.next {
			probed++
			if fresh.Test(p.tuple) != p.sol {
				bad = append(bad, fmt.Sprintf("final version test(%v) = %v, fresh build disagrees", p.tuple, p.sol))
			}
		}
	}
	if probed == 0 {
		bad = append(bad, fmt.Sprintf("final version %d was never probed", head))
	}
	return bad
}

// thin keeps at most n evenly spaced elements.
func thin(xs [][]int, n int) [][]int {
	if len(xs) <= n {
		return xs
	}
	out := make([][]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, xs[i*len(xs)/n])
	}
	return out
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
