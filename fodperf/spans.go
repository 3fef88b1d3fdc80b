package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanRec is one benchmark span: a client op, the handler serving it, or a
// direct call into a layer. Spans of one op share its id; the op's root
// span has the op id as its own id and parent 0.
type spanRec struct {
	Op      uint64 `json:"op"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s spanRec) dur() int64 { return s.EndNS - s.StartNS }

// spanLog keeps a traced run's spans in memory; dump writes them out when
// the run ends. A nil *spanLog, or one switched off, records nothing.
type spanLog struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newOp returns a fresh op id, or 0 when not recording.
func (l *spanLog) newOp() uint64 {
	if l == nil || !l.on.Load() {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) add(op, id, parent uint64, name string, start time.Time, d time.Duration) {
	s := spanRec{Op: op, ID: id, Parent: parent, Name: name,
		StartNS: start.Sub(l.t0).Nanoseconds()}
	s.EndNS = s.StartNS + d.Nanoseconds()
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// root records op's root span.
func (l *spanLog) root(op uint64, name string, start time.Time, d time.Duration) {
	if op != 0 {
		l.add(op, op, 0, name, start, d)
	}
}

// span records a child of op's root span.
func (l *spanLog) span(op uint64, name string, start time.Time, d time.Duration) {
	if op != 0 {
		l.add(op, l.ids.Add(1), op, name, start, d)
	}
}

// timed runs fn as a layer call: a root span of a fresh op.
func (l *spanLog) timed(name string, fn func()) time.Duration {
	op := l.newOp()
	start := time.Now()
	fn()
	d := time.Since(start)
	l.root(op, name, start, d)
	return d
}

// middleware records a handler span, named after the endpoint, for every
// request that carries an op id.
func (l *spanLog) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		if op == 0 || !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		l.span(op, "serve."+strings.TrimPrefix(r.URL.Path, "/v1/"), start, time.Since(start))
	})
}

func (l *spanLog) snapshot() []spanRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]spanRec(nil), l.spans...)
}

// handlerDurations groups the handler spans by endpoint.
func (l *spanLog) handlerDurations() map[string][]int64 {
	out := map[string][]int64{}
	for _, s := range l.snapshot() {
		if ep, ok := strings.CutPrefix(s.Name, "serve."); ok {
			out[ep] = append(out[ep], s.dur())
		}
	}
	return out
}

// netWaits is, per client op, the client's latency minus the handler's
// time: loopback, HTTP framing and the wait to be scheduled.
func (l *spanLog) netWaits() []int64 {
	roots := map[uint64]int64{}
	handler := map[uint64]int64{}
	for _, s := range l.snapshot() {
		switch {
		case s.Parent == 0 && strings.HasPrefix(s.Name, "client."):
			roots[s.Op] = s.dur()
		case strings.HasPrefix(s.Name, "serve."):
			handler[s.Op] = s.dur()
		}
	}
	var out []int64
	for op, d := range roots {
		if h, ok := handler[op]; ok {
			out = append(out, d-h)
		}
	}
	return out
}

// selfTimes is, per span name, the span durations minus the part of each
// span its children cover.
func selfTimes(spans []spanRec) (names []string, self, total map[string][]int64) {
	kids := map[uint64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self, total = map[string][]int64{}, map[string][]int64{}
	for _, s := range spans {
		covered := int64(0)
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].StartNS < ks[j].StartNS })
		end := s.StartNS
		for _, k := range ks {
			lo, hi := max(k.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		if _, ok := self[s.Name]; !ok {
			names = append(names, s.Name)
		}
		self[s.Name] = append(self[s.Name], s.dur()-covered)
		total[s.Name] = append(total[s.Name], s.dur())
	}
	sort.Strings(names)
	return names, self, total
}

// printLayerTable writes the traced window's self-time table, with the
// program's own span.* histograms of the same window beside it.
func printLayerTable(w io.Writer, l *spanLog, win *window) {
	names, self, total := selfTimes(l.snapshot())
	fmt.Fprintf(w, "# %-34s %8s %12s %12s %14s\n", "benchmark span", "n", "p50 µs", "self p50 µs", "self sum ms")
	for _, n := range names {
		sum := int64(0)
		for _, v := range self[n] {
			sum += v
		}
		fmt.Fprintf(w, "# %-34s %8d %12.1f %12.1f %14.1f\n", n, len(self[n]),
			quantileNS(total[n], 0.5)/1e3, quantileNS(self[n], 0.5)/1e3, float64(sum)/1e6)
	}
	var hists []string
	for n := range win.reg1.Histograms {
		if strings.HasPrefix(n, "span.") {
			hists = append(hists, n)
		}
	}
	sort.Strings(hists)
	fmt.Fprintf(w, "# %-34s %8s %12s\n", "program span histogram", "n", "p50 µs")
	for _, n := range hists {
		a, b := win.reg0.Histograms[n], win.reg1.Histograms[n]
		if b.Count-a.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "# %-34s %8d %12.1f\n", n, b.Count-a.Count, histQuantile(a, b, 0.5)/1e3)
	}
}

// dump writes the run's environment record and every span to
// dir/spans-<workload>-<seed>.json.
func (l *spanLog) dump(dir, workload string, seed int64, env string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	b, err := json.Marshal(struct {
		Env   json.RawMessage `json:"env"`
		Spans []spanRec       `json:"spans"`
	}{json.RawMessage(env), l.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
