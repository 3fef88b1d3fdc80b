package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
)

// stubIndex returns a trivially buildable index for cache unit tests.
func stubIndex(t *testing.T) *repro.Index {
	t.Helper()
	g := repro.Generate("path", 10, repro.GenOptions{Colors: 1, Seed: 1})
	ix, err := repro.BuildIndex(g, repro.MustParseQuery("C0(x)", "x"))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestCacheLRUEviction(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	c := newIndexCache(context.Background(), 2, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		builds.Add(1)
		return ix, nil
	})
	key := func(i int) cacheKey { return cacheKey{graph: "g", canonical: fmt.Sprint(i)} }

	get := func(i int) bool {
		t.Helper()
		_, hit, err := c.Get(context.Background(), key(i))
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	get(1) // miss: {1}
	get(2) // miss: {2 1}
	if !get(1) {
		t.Fatal("1 should be cached") // {1 2}
	}
	get(3) // miss, evicts 2: {3 1}
	if get(2) {
		t.Fatal("2 should have been the LRU victim")
	}
	st := c.Stats()
	if st.Builds != 4 || st.Evictions != 2 || st.Size != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if c.Flush() != 2 {
		t.Fatal("flush should drop both entries")
	}
	if c.Stats().Size != 0 {
		t.Fatal("size after flush")
	}
	if get(1) {
		t.Fatal("1 should rebuild after flush")
	}
}

func TestCacheSingleflightSharesOneBuild(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	release := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		builds.Add(1)
		<-release
		return ix, nil
	})

	const waiters = 10
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"})
			if err != nil || got != ix {
				t.Errorf("Get: %v %v", got, err)
			}
		}()
	}
	// Wait until every goroutine joined the flight, then release the build.
	deadline := time.After(2 * time.Second)
	for c.Stats().FlightShared < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d waiters joined", c.Stats().FlightShared)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
}

// TestCacheBuildCanceledWhenAllWaitersLeave: once the last waiter's
// context expires, the build context is canceled; the failed flight is
// not cached and a retry rebuilds.
func TestCacheBuildCanceledWhenAllWaitersLeave(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	canceled := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) == 1 {
			<-ctx.Done() // simulate a long build interrupted at a checkpoint
			close(canceled)
			return nil, ctx.Err()
		}
		return ix, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Get(ctx, cacheKey{graph: "g", canonical: "q"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error %v, want DeadlineExceeded", err)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("build context was never canceled")
	}
	// Retry rebuilds (the canceled flight did not poison the key).
	got, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"})
	if err != nil || got != ix {
		t.Fatalf("retry: %v %v", got, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

// TestCacheRetryAfterCancelStartsFreshBuild: once the last waiter of a
// flight has left, the canceled flight is unlinked at once. A retry that
// arrives while the canceled build is still winding down starts a second
// build and succeeds, instead of joining the dying flight and inheriting
// its cancellation.
func TestCacheRetryAfterCancelStartsFreshBuild(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	sawCancel := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if builds.Add(1) == 1 {
			<-ctx.Done()
			close(sawCancel)
			<-gate // still winding down when the retry arrives
			return nil, ctx.Err()
		}
		return ix, nil
	})
	key := cacheKey{graph: "g", canonical: "q"}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, _, err := c.Get(ctx, key); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter error %v, want DeadlineExceeded", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(2 * time.Second):
		t.Fatal("build context was never canceled")
	}
	rctx, rcancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer rcancel()
	got, hit, err := c.Get(rctx, key)
	if err != nil || got != ix || hit {
		t.Fatalf("retry before the canceled build returned: ix %v hit %v err %v", got, hit, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds, want 2", n)
	}
}

// TestCacheBuildPanicReleasesWaiters: a build that panics fails its
// flight instead of the process. Every waiter gets an error that maps to
// 500 internal, the panic is counted, and the cache keeps serving other
// keys.
func TestCacheBuildPanicReleasesWaiters(t *testing.T) {
	ix := stubIndex(t)
	release := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		if key.canonical == "boom" {
			<-release
			panic("injected build failure")
		}
		return ix, nil
	})
	const waiters = 6
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "boom"})
			errs <- err
		}()
	}
	deadline := time.After(2 * time.Second)
	for c.Stats().FlightShared < waiters-1 {
		select {
		case <-deadline:
			t.Fatalf("only %d waiters joined", c.Stats().FlightShared)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("waiter of a panicking build got no error")
			}
			rec := httptest.NewRecorder()
			writeCacheErr(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), err)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("panic error %q maps to status %d, want 500", err, rec.Code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter hung on a panicking build")
		}
	}
	if n := c.panics.Load(); n != 1 {
		t.Fatalf("build_panics = %d, want 1", n)
	}
	got, _, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "fine"})
	if err != nil || got != ix {
		t.Fatalf("Get after a panicking build: %v %v", got, err)
	}
}

// TestCacheAbandonedSuccessIsCached: a build whose waiters all left but
// which completes before noticing cancellation still lands in the cache.
func TestCacheAbandonedSuccessIsCached(t *testing.T) {
	ix := stubIndex(t)
	var builds atomic.Int64
	started := make(chan struct{})
	finish := make(chan struct{})
	c := newIndexCache(context.Background(), 4, nil, func(ctx context.Context, key cacheKey) (*repro.Index, error) {
		builds.Add(1)
		close(started)
		<-finish // ignore ctx: a build between checkpoints can't be stopped
		return ix, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel() // abandon the only waiter
	}()
	if _, _, err := c.Get(ctx, cacheKey{graph: "g", canonical: "q"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error %v, want Canceled", err)
	}
	close(finish)
	// The orphaned result must land in the cache. Poll with Peek, which
	// never builds: the abandoned flight is unlinked, so a polling Get
	// would start a build of its own.
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := c.Peek(cacheKey{graph: "g", canonical: "q"}); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("orphaned successful build never cached")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if _, hit, err := c.Get(context.Background(), cacheKey{graph: "g", canonical: "q"}); err != nil || !hit {
		t.Fatalf("Get after the orphaned build: hit %v err %v", hit, err)
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one abandoned flight, want 1", n)
	}
}

func TestCursorRoundTrip(t *testing.T) {
	for _, tup := range [][]int{{0}, {1, 2}, {0, 0, 0}, {999999, 0, 31}} {
		for _, ver := range []int{0, 1, 37} {
			cur := encodeCursor("abc123", ver, tup)
			id, gotVer, got, err := decodeCursor(cur)
			if err != nil {
				t.Fatalf("decode(%v@%d): %v", tup, ver, err)
			}
			if id != "abc123" || gotVer != ver || !tupleEqual(got, tup) {
				t.Fatalf("round trip %v@%d -> %q @%d %v", tup, ver, id, gotVer, got)
			}
		}
	}
	// Legacy v1 cursors ("v1 <id> <tuple...>") decode to cursorHead: they
	// predate versioned graphs and resume at the current head.
	v1 := base64.RawURLEncoding.EncodeToString([]byte("v1 abc123 4 7"))
	id, ver, got, err := decodeCursor(v1)
	if err != nil {
		t.Fatalf("v1 cursor rejected: %v", err)
	}
	if id != "abc123" || ver != cursorHead || !tupleEqual(got, []int{4, 7}) {
		t.Fatalf("v1 cursor decoded to %q @%d %v", id, ver, got)
	}
	for _, bad := range []string{
		"", "!!!", "djEgYQ",
		encodeCursor("q", 0, nil),                                 // v2 with no tuple
		base64.RawURLEncoding.EncodeToString([]byte("v2 q -3 1")), // negative version
		base64.RawURLEncoding.EncodeToString([]byte("v3 q 0 1")),  // unknown format
	} {
		if _, _, _, err := decodeCursor(bad); err == nil {
			t.Fatalf("decode(%q) accepted", bad)
		}
	}
}
