package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// config is one benchmark run.
type config struct {
	seed   int64
	window time.Duration
	trace  bool
	// scale divides every graph size: 1 in real runs, larger in the
	// self-test so each workload finishes in a couple of seconds.
	scale  int
	outDir string
	// tamper, when set, alters the recorded answers before the check: the
	// self-test's negative control.
	tamper func(*tape)
}

// clients is the number of closed-loop clients and connections: the
// benchmark machine has two cores, and more clients than cores only
// measures the scheduler.
const clients = 2

type metricDef struct{ name, unit string }

// endToEnd lists what a client of fodserve sees. Every workload reports
// every one of them — each workload pages through answers — and none of
// them can be 0 on a run that completes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"heap_peak_mib", "MiB"},
	{"answers_per_s", "1/s"},
	{"page_ms_p50", "ms"},
	{"page_ms_p90", "ms"},
	{"request_us_p50", "us"},
}

// perLayer lists the per-layer metrics of a traced run; README.md maps
// each to the end-to-end metric it should move. A layer a workload does
// not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.enumerate.handler_ms_p50", "ms"},
		{"serve.enumerate.ns_per_answer", "ns"},
		{"serve.enumerate.allocs_per_page", "count"},
		{"serve.enumerate.alloc_bytes_per_answer", "B"},
		{"serve.enumerate.wire_bytes_per_answer", "B"},
		{"serve.point.handler_us_p50", "us"},
		{"serve.point.allocs_per_req", "count"},
		{"net.wait_us_p50", "us"},
		{"serve.mutate.publish_ms_p50", "ms"},
		{"cache.hit_ratio", "ratio"},
		{"cache.lookup_us_p50", "us"},
		{"cache.lookup_ms_p90", "ms"},
		{"cache.build_ms_p50", "ms"},
		{"cache.migrate_ms_p50", "ms"},
		{"cache.builds_per_kop", "count"},
		{"cache.migrations_per_kop", "count"},
		{"cache.evictions_per_kop", "count"},
		{"cache.flight_shared_per_kop", "count"},
		{"repro.select_ms", "ms"},
		{"core.preprocess.dist_ms", "ms"},
		{"core.preprocess.cover_ms", "ms"},
		{"core.preprocess.kernel_ms", "ms"},
		{"core.preprocess.starter_ms", "ms"},
		{"core.preprocess.skip_ms", "ms"},
		{"core.cover_bags", "count"},
		{"core.skip_pointers", "count"},
		{"lowdeg.ball_ms", "ms"},
		{"lowdeg.starter_ms", "ms"},
		{"lowdeg.ball_entries", "count"},
		{"graph.patch_ms", "ms"},
		{"mutate.core.apply_ms_p50", "ms"},
		{"mutate.core.affected_slots", "count"},
		{"mutate.core.rebuild_fallback_ratio", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.alloc_mib_per_s", "MiB/s"},
		{"obs.trace_overhead_pct", "%"},
		{"error_rate", "ratio"},
		{"request_us_p90", "us"},
		{"point_us_p50", "us"},
		{"point_us_p90", "us"},
		{"count_ms_p50", "ms"},
		{"mutate_ms_p50", "ms"},
		{"visible_ms_p50", "ms"},
		{"visible_ms_p90", "ms"},
		{"client.decode_ms_per_page", "ms"},
	}
	for _, e := range engines {
		defs = append(defs,
			metricDef{"repro.build_ms." + e, "ms"},
			metricDef{"repro.index_mib." + e, "MiB"},
			metricDef{"repro.build_alloc_mib." + e, "MiB"},
			metricDef{"engine." + e + ".next_ns", "ns"},
			metricDef{"engine." + e + ".seek_ns", "ns"},
			metricDef{"engine." + e + ".candidates_per_answer", "count"},
			metricDef{"engine." + e + ".dead_end_ratio", "ratio"},
			metricDef{"engine." + e + ".local_eval_hit_ratio", "ratio"},
			metricDef{"engine." + e + ".test_ns", "ns"},
			metricDef{"engine." + e + ".nextgeq_ns", "ns"},
			metricDef{"engine." + e + ".count_ms", "ms"},
		)
	}
	return defs
}()

var engines = []string{string(repro.EngineCore), string(repro.EngineLowDeg)}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// site is one running server plus the client that drives it.
type site struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	handler http.Handler // what the listener serves; replays call it directly
	reg     *obs.Registry
	base    string
	client  *http.Client
	spans   *spanLog // nil in untraced runs
}

// startSite starts a server over graphs configured as fodserve's defaults
// (engine auto, cache 8, max-limit 10000, retain 4, Parallelism 0, metrics
// on, tracer buffer 256 / slow 100ms / sample 1-in-16, JSON log discarded)
// on a loopback listener.
func startSite(graphs map[string]*repro.Graph, spans *spanLog) (*site, error) {
	reg := obs.New()
	srv := serve.NewServer(serve.Config{
		Graphs:         graphs,
		CacheSize:      8,
		MaxLimit:       10000,
		RetainVersions: repro.DefaultRetainVersions,
		Engine:         repro.EngineAuto,
		Metrics:        reg,
		Tracer:         obs.NewTracer(obs.TracerConfig{Buffer: 256, Slow: 100 * time.Millisecond, SampleN: 16}),
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if spans != nil {
		h = spans.middleware(h)
	}
	s := &site{
		srv:     srv,
		hs:      &http.Server{Handler: h},
		served:  make(chan struct{}),
		handler: h,
		reg:     reg,
		base:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		spans: spans,
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // always http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits until its accept loop has returned.
func (s *site) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)  //nolint:errcheck // in-flight requests are over: the clients have stopped
	s.srv.Shutdown(ctx) //nolint:errcheck // as above
	<-s.served
	s.client.CloseIdleConnections()
}

// opHeader carries a traced op's id from the client root span to the
// handler span the middleware records.
const opHeader = "X-Fodperf-Op"

// conn is one closed-loop client's view of the site.
type conn struct {
	s   *site
	buf bytes.Buffer
}

// do sends one request and reads the whole body. The latency runs from
// send to the last body byte; the returned body is valid until the next
// call.
func (c *conn) do(method, path string, body []byte, op uint64) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.s.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if op != 0 {
		req.Header.Set(opHeader, strconv.FormatUint(op, 10))
	}
	start := time.Now()
	resp, err := c.s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	d := time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), d, err
}

// call is do for a JSON endpoint: it decodes the envelope's data into out
// and reports any transport, status or decode failure as an error.
func (c *conn) call(method, path string, body []byte, op uint64, out any) (time.Duration, error) {
	status, b, d, err := c.do(method, path, body, op)
	if err != nil {
		return d, err
	}
	if status/100 != 2 {
		return d, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, status, b)
	}
	return d, decodeData(b, out)
}

// tape is what one client records during a window. Clients never share a
// tape; run merges them after the window.
type tape struct {
	attempted, failed int64
	errs              []string

	reqs                  []sample // every request
	pages, points, counts []sample
	mutates, visibles     []sample
	decodeNS              int64
	decoded               int64

	pageRecs  []pageRec
	pointRecs []pointRec
	countRecs []countRec
	edits     []editRec
}

func (t *tape) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tape) merge(o *tape) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
	t.reqs = append(t.reqs, o.reqs...)
	t.pages = append(t.pages, o.pages...)
	t.points = append(t.points, o.points...)
	t.counts = append(t.counts, o.counts...)
	t.mutates = append(t.mutates, o.mutates...)
	t.visibles = append(t.visibles, o.visibles...)
	t.decodeNS += o.decodeNS
	t.decoded += o.decoded
	t.pageRecs = append(t.pageRecs, o.pageRecs...)
	t.pointRecs = append(t.pointRecs, o.pointRecs...)
	t.countRecs = append(t.countRecs, o.countRecs...)
	t.edits = append(t.edits, o.edits...)
}

// window is one measured stretch of closed-loop load.
type window struct {
	tape
	elapsed    time.Duration
	heapPeak   uint64
	rt0, rt1   []metrics.Sample
	reg0, reg1 obs.Snapshot
}

var runtimeMetrics = []string{
	"/gc/heap/live:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// rtValue returns a runtime metric as a float, whatever its kind.
func rtValue(s []metrics.Sample, name string) float64 {
	for _, x := range s {
		if x.Name != name {
			continue
		}
		switch x.Value.Kind() {
		case metrics.KindUint64:
			return float64(x.Value.Uint64())
		case metrics.KindFloat64:
			return x.Value.Float64()
		}
	}
	return 0
}

// measure runs the workload's clients for one window. The peak live heap
// is the largest /gc/heap/live:bytes seen while they run or right after a
// collection at the end: the engines' lazy caches only grow during a
// window, and without the final collection the peak would depend on
// whether a cycle happened to run late in it.
func measure(w workload, s *site, st *state, d time.Duration) (*window, error) {
	if err := w.prepare(&conn{s: s}); err != nil {
		return nil, err
	}
	collect()
	win := &window{reg0: s.reg.Snapshot(), rt0: readRuntime()}
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()

	stopSampler := make(chan struct{})
	sampled := make(chan uint64)
	go func() {
		peak := uint64(0)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := uint64(rtValue(readRuntime()[:1], "/gc/heap/live:bytes")); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-stopSampler:
				sampled <- peak
				return
			}
		}
	}()

	tapes := make([]*tape, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range tapes {
		tapes[c] = &tape{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.drive(ctx, st, c, &conn{s: s}, tapes[c])
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	close(stopSampler)
	win.heapPeak = <-sampled
	win.rt1 = readRuntime()
	win.reg1 = s.reg.Snapshot()
	collect()
	win.heapPeak = max(win.heapPeak, uint64(rtValue(readRuntime(), "/gc/heap/live:bytes")))
	for _, t := range tapes {
		win.merge(t)
	}
	return win, nil
}

// run is one benchmark run: set-up (several times, reporting the median),
// the measured window(s), the layer replays of a traced run, then the
// answer check once the server is gone.
func run(w workload, cfg config, log io.Writer) (*result, error) {
	env := environment(cfg)
	fmt.Fprintf(log, "# env %s\n", env)

	reps := 5
	if cfg.trace {
		reps = 1
	}
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog()
	}
	var setups []float64
	var s *site
	var st *state
	for r := 0; r < reps; r++ {
		if s != nil {
			s.close()
			s = nil
			collect()
		}
		t0 := time.Now()
		var err error
		if s, st, err = w.setUp(cfg, spans); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	m := map[string]float64{}
	all := &tape{}
	var win *window
	var err error
	if cfg.trace {
		// The overhead comparison: an untraced window, then the traced one
		// every per-layer number comes from.
		plain, err := measure(w, s, st, cfg.window)
		if err != nil {
			return nil, err
		}
		all.merge(&plain.tape)
		spans.on.Store(true)
		win, err = measure(w, s, st, cfg.window)
		spans.on.Store(false)
		if err != nil {
			return nil, err
		}
		all.merge(&win.tape)
		po, to := opsPerS(plain), opsPerS(win)
		m["obs.trace_overhead_pct"] = 100 * (po - to) / po
		clientMetrics(m, &plain.tape)
	} else if win, err = measure(w, s, st, cfg.window); err != nil {
		return nil, err
	} else {
		all.merge(&win.tape)
	}
	w.final(st, &conn{s: s}, all)

	var lay *layerRun
	probed := map[string]float64{}
	if cfg.trace {
		lay = newLayerRun(spans)
		serveReplays(s, st, all, lay)
		pt, err := probe(st, s, probed)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		all.merge(pt)
	}
	s.close()
	s = nil
	collect()

	refs := newReferee()
	if cfg.trace {
		layers(st, lay, refs)
	}
	if cfg.tamper != nil {
		cfg.tamper(all)
	}
	mismatches := verify(st, refs, all)
	all.failed += int64(len(mismatches))
	for _, e := range mismatches {
		if len(all.errs) < 5 {
			all.errs = append(all.errs, e)
		}
	}
	for _, e := range all.errs {
		fmt.Fprintf(log, "# error: %s\n", e)
	}

	res := &result{
		Correct:   len(mismatches) == 0 && all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no request was attempted")
	}
	defs := endToEnd
	if cfg.trace {
		windowLayerMetrics(m, win, spans)
		lay.metrics(m)
		for k, v := range probed {
			if m[k] == 0 {
				m[k] = v
			}
		}
		m["error_rate"] = float64(all.failed) / float64(all.attempted)
		defs = perLayer
		printLayerTable(log, spans, win)
		if err := spans.dump(cfg.outDir, w.name(), cfg.seed, env); err != nil {
			return nil, err
		}
	} else {
		endToEndMetrics(m, win, setups)
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if !cfg.trace && v == 0 && res.Correct {
			return nil, fmt.Errorf("metric %s measured 0", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// collect runs two collections: objects parked in sync.Pools survive the
// first one in the pools' victim caches, and they can keep whole indexes
// of a closed server reachable.
func collect() {
	runtime.GC()
	runtime.GC()
}

func opsPerS(w *window) float64 { return float64(len(w.reqs)) / w.elapsed.Seconds() }

func endToEndMetrics(m map[string]float64, w *window, setups []float64) {
	m["setup_s"] = median(setups)
	m["ops_per_s"] = opsPerS(w)
	m["heap_peak_mib"] = float64(w.heapPeak) / (1 << 20)
	answers := int64(0)
	for _, p := range w.pages {
		answers += p.n
	}
	m["answers_per_s"] = float64(answers) / w.elapsed.Seconds()
	m["page_ms_p50"] = latency(w.pages, 0.5) / 1e6
	m["page_ms_p90"] = latency(w.pages, 0.9) / 1e6
	m["request_us_p50"] = latency(w.reqs, 0.5) / 1e3
}

// clientMetrics reports, per request kind, what the client saw on a tape:
// the untraced window of a traced run, or its probe round. Not every
// workload sends every kind, so these cannot be end-to-end metrics every
// workload reports. The request
// tail is here too: on two cores it swings with garbage-collection timing
// far more than the bounds of an end-to-end metric allow.
func clientMetrics(m map[string]float64, t *tape) {
	m["request_us_p90"] = latency(t.reqs, 0.9) / 1e3
	m["point_us_p50"] = latency(t.points, 0.5) / 1e3
	m["point_us_p90"] = latency(t.points, 0.9) / 1e3
	m["count_ms_p50"] = latency(t.counts, 0.5) / 1e6
	m["mutate_ms_p50"] = latency(t.mutates, 0.5) / 1e6
	m["visible_ms_p50"] = latency(t.visibles, 0.5) / 1e6
	m["visible_ms_p90"] = latency(t.visibles, 0.9) / 1e6
}

// windowLayerMetrics derives the per-layer metrics of the traced window:
// the handler spans the middleware recorded, the program's own cache
// counters and span histograms, and the Go runtime.
func windowLayerMetrics(m map[string]float64, w *window, spans *spanLog) {
	ops := float64(w.attempted)
	diffC := func(name string) float64 {
		return float64(w.reg1.Counters[name] - w.reg0.Counters[name])
	}
	hits, misses := diffC("serve.cache.hits"), diffC("serve.cache.misses")
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	if ops > 0 {
		m["cache.builds_per_kop"] = 1000 * diffC("serve.cache.builds") / ops
		m["cache.migrations_per_kop"] = 1000 * diffC("serve.cache.migrations") / ops
		m["cache.evictions_per_kop"] = 1000 * diffC("serve.cache.evictions") / ops
		m["cache.flight_shared_per_kop"] = 1000 * diffC("serve.cache.flight_shared") / ops
	}
	programSpanMetrics(m, w.reg0, w.reg1)

	handler := spans.handlerDurations()
	m["serve.enumerate.handler_ms_p50"] = quantileNS(handler["enumerate"], 0.5) / 1e6
	m["serve.point.handler_us_p50"] = quantileNS(append(handler["test"], handler["next"]...), 0.5) / 1e3
	m["net.wait_us_p50"] = quantileNS(spans.netWaits(), 0.5) / 1e3

	secs := w.elapsed.Seconds()
	m["runtime.gc_cycles"] = rtValue(w.rt1, "/gc/cycles/total:gc-cycles") - rtValue(w.rt0, "/gc/cycles/total:gc-cycles")
	if cpu := rtValue(w.rt1, "/cpu/classes/total:cpu-seconds") - rtValue(w.rt0, "/cpu/classes/total:cpu-seconds"); cpu > 0 {
		m["runtime.gc_cpu_frac"] = (rtValue(w.rt1, "/cpu/classes/gc/total:cpu-seconds") - rtValue(w.rt0, "/cpu/classes/gc/total:cpu-seconds")) / cpu
	}
	m["runtime.alloc_mib_per_s"] = (rtValue(w.rt1, "/gc/heap/allocs:bytes") - rtValue(w.rt0, "/gc/heap/allocs:bytes")) / (1 << 20) / secs
	if w.decoded > 0 {
		m["client.decode_ms_per_page"] = float64(w.decodeNS) / float64(w.decoded) / 1e6
	}
}

// programSpanMetrics reads the program's own span histograms over the
// observations they gained between two registry snapshots.
func programSpanMetrics(m map[string]float64, reg0, reg1 obs.Snapshot) {
	hq := func(name string, q float64) float64 {
		return histQuantile(reg0.Histograms[name], reg1.Histograms[name], q)
	}
	m["cache.lookup_us_p50"] = hq("span.cache.lookup_ns", 0.5) / 1e3
	m["cache.lookup_ms_p90"] = hq("span.cache.lookup_ns", 0.9) / 1e6
	m["cache.build_ms_p50"] = hq("span.cache.build_ns", 0.5) / 1e6
	m["cache.migrate_ms_p50"] = hq("span.cache.migrate_ns", 0.5) / 1e6
	m["serve.mutate.publish_ms_p50"] = hq("span.mutate.publish_ns", 0.5) / 1e6
}

// probe sends, after the windows of a traced run, one short round of the
// request kinds a workload's own traffic may lack — a cold build, two steps
// of the mutate-read writer, point lookups — all on query st.mutateOn, so
// that every per-layer time is measured on every workload. It fills m with
// what the round measured; run uses a value only where the window's own is
// 0. The round's answers are checked like the window's.
func probe(st *state, s *site, m map[string]float64) (*tape, error) {
	k := &conn{s: s}
	if err := flush(k); err != nil {
		return nil, err
	}
	s.spans.on.Store(true)
	defer s.spans.on.Store(false)
	reg0 := s.reg.Snapshot()
	t := &tape{}
	rng := newRand(st.cfg.seed, len(st.queries)) // a salt no layer replay uses
	q := st.queries[st.mutateOn]
	k.page(t, st, st.mutateOn, "", nil, 100)
	for i := 0; i < 2; i++ {
		writerStep(st, k, t, rng)
	}
	for i := 0; i < 16; i++ {
		k.point(t, st, st.mutateOn, st.randTuple(rng, q), i%2 == 1)
	}
	programSpanMetrics(m, reg0, s.reg.Snapshot())
	clientMetrics(m, t)
	return t, nil
}

// flush empties the server's index cache.
func flush(k *conn) error {
	_, err := k.call("POST", "/v1/cache/flush", nil, 0, &struct{}{})
	return err
}

// histQuantile is the q-quantile of the observations a log₂ histogram
// gained between two snapshots, interpolated linearly inside the bucket
// (bucket b holds [2^(b-1), 2^b-1] ns).
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	prev := map[int64]int64{}
	for _, b := range before.Buckets {
		prev[b.LE] = b.N
	}
	type bucket struct{ lo, hi, n float64 }
	var bs []bucket
	total := 0.0
	for _, b := range after.Buckets {
		n := float64(b.N - prev[b.LE])
		if n <= 0 {
			continue
		}
		bs = append(bs, bucket{lo: float64((b.LE + 1) / 2), hi: float64(b.LE), n: n})
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].hi < bs[j].hi })
	rank := q * total
	for _, b := range bs {
		if rank <= b.n {
			return b.lo + (b.hi-b.lo)*rank/b.n
		}
		rank -= b.n
	}
	return bs[len(bs)-1].hi
}

// environment is the per-run environment record.
func environment(cfg config) string {
	return fmt.Sprintf(`{"nproc":%d,"gomaxprocs":%d,"go":%q,"seed":%d,"window_s":%g,"trace":%t}`,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.seed, cfg.window.Seconds(), cfg.trace)
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
