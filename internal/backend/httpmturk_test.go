package backend

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mturk"
)

// httpRig is one sandboxed HTTP-driver test environment: an in-process
// MTurk-shaped server wrapping a real simulated marketplace, and a
// driver pointed at it with no-wait pacing and recorded sleeps.
type httpRig struct {
	srv    *Server
	ts     *httptest.Server
	client *HTTP

	sleepMu sync.Mutex
	sleeps  []time.Duration
}

func (r *httpRig) recordedSleeps() []time.Duration {
	r.sleepMu.Lock()
	defer r.sleepMu.Unlock()
	return append([]time.Duration(nil), r.sleeps...)
}

func newHTTPRig(t *testing.T, pool mturk.WorkerPool, cfg HTTPConfig) *httpRig {
	t.Helper()
	serverClock := mturk.NewClock()
	market := mturk.NewMarketplace(serverClock, pool)
	r := &httpRig{srv: NewServer(market, serverClock)}
	r.ts = httptest.NewServer(r.srv)
	t.Cleanup(r.ts.Close)
	cfg.BaseURL = r.ts.URL
	if cfg.Clock == nil {
		cfg.Clock = mturk.NewClock()
	}
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Millisecond
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Sleep == nil {
		cfg.Sleep = func(d time.Duration) {
			r.sleepMu.Lock()
			r.sleeps = append(r.sleeps, d)
			r.sleepMu.Unlock()
		}
	}
	client, err := NewHTTP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	r.client = client
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestHTTPPostAndPoll(t *testing.T) {
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{})
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 2)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "assignments", func() bool { return got.len() == 2 })
	got.mu.Lock()
	for _, res := range got.results {
		if len(res.Answers.Values) != 1 || !res.Answers.Values[0].Truthy() {
			t.Error("answer did not round-trip the wire")
		}
	}
	got.mu.Unlock()
	stats := r.client.Stats()
	if stats.HITsPosted != 1 || stats.AssignmentsCompleted != 2 || stats.SpentCents != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	st, ok := r.client.Status(h.ID)
	if !ok || st.Completed != 2 || st.Spent != 4 {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
	st, ok = r.client.Dispose(h.ID)
	if !ok || st.Completed != 2 || st.Spent != 4 {
		t.Fatalf("dispose = %+v ok=%v", st, ok)
	}
}

// TestHTTPTornPostRetriesIdempotently injects the dangerous failure: the
// server processes the POST, then the response dies mid-body. The client
// must retry — and because the HIT ID rides as the Idempotency-Key, the
// retry is answered from the server's idempotency cache instead of
// posting (and paying for) the HIT a second time.
func TestHTTPTornPostRetriesIdempotently(t *testing.T) {
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{})
	r.srv.TearNext(1)
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 2)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "assignments", func() bool { return got.len() == 2 })
	if n := r.srv.Posted(); n != 1 {
		t.Fatalf("server posted %d HITs, want 1 (retry must dedupe)", n)
	}
	if reqs := r.srv.Requests(); reqs < 3 {
		t.Fatalf("requests = %d, want torn POST + retry + polls", reqs)
	}
	// The marketplace charged for exactly one HIT's assignments.
	st, ok := r.client.Dispose(h.ID)
	if !ok || st.Completed != 2 || st.Spent != 4 {
		t.Fatalf("dispose = %+v ok=%v (double spend?)", st, ok)
	}
	if got.len() != 2 {
		t.Fatalf("assignments delivered = %d, want exactly 2", got.len())
	}
}

// TestHTTPBackoffSchedule pins the retry pacing: 5xx responses back off
// exponentially with bounded seeded jitter.
func TestHTTPBackoffSchedule(t *testing.T) {
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{Seed: 7})
	r.srv.FailNext(3)
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 1)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "assignments", func() bool { return got.len() == 1 })
	if reqs := r.srv.Requests(); reqs < 4 {
		t.Fatalf("requests = %d, want 3 failures + success + polls", reqs)
	}
	sleeps := r.recordedSleeps()
	if len(sleeps) < 3 {
		t.Fatalf("sleeps = %v, want three backoffs", sleeps)
	}
	base := 100 * time.Millisecond
	for i := 0; i < 3; i++ {
		d := base << uint(i)
		lo, hi := d, d+d/4 // exponential step + at most 25% jitter
		if sleeps[i] < lo || sleeps[i] > hi {
			t.Errorf("backoff %d = %v, want in [%v, %v]", i, sleeps[i], lo, hi)
		}
	}
}

// TestHTTPDuplicateDeliveryDedupes makes the server repeat every entry of
// an assignment page; the client dedupes by assignment ID so completions
// are delivered (and counted) exactly once.
func TestHTTPDuplicateDeliveryDedupes(t *testing.T) {
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{})
	r.srv.DuplicateNext(1)
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 2)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "assignments", func() bool { return got.len() >= 2 })
	time.Sleep(10 * time.Millisecond) // would-be duplicates land here
	if got.len() != 2 {
		t.Fatalf("assignments delivered = %d, want exactly 2", got.len())
	}
	stats := r.client.Stats()
	if stats.AssignmentsCompleted != 2 || stats.SpentCents != 4 {
		t.Fatalf("stats double-counted: %+v", stats)
	}
}

// gateTransport wedges matching requests open until release is closed
// (or their context dies), simulating a network that stops delivering
// poll responses without erroring instantly.
type gateTransport struct {
	base    http.RoundTripper
	match   func(*http.Request) bool
	release chan struct{}
}

func (g *gateTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.match(req) {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-g.release:
		}
	}
	return g.base.RoundTrip(req)
}

// TestHTTPCloseCancelsStuckPollers proves context cancellation: a poller
// wedged in a request is torn down by Close, and a later Dispose reports
// only what the client actually received — the Task Manager's refund
// basis when the network is gone.
func TestHTTPCloseCancelsStuckPollers(t *testing.T) {
	gate := &gateTransport{
		base:    http.DefaultTransport,
		match:   func(req *http.Request) bool { return strings.Contains(req.URL.Path, "/assignments") },
		release: make(chan struct{}),
	}
	defer close(gate.release)
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{Client: &http.Client{Transport: gate}})
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 2)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.client.Close() // must cancel the wedged poll and return
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not cancel the stuck poller")
	}
	if got.len() != 0 {
		t.Fatalf("assignments delivered after close = %d", got.len())
	}
	st, ok := r.client.Dispose(h.ID)
	if !ok || st.Completed != 0 || st.Spent != 0 {
		t.Fatalf("dispose after close = %+v ok=%v, want nothing received", st, ok)
	}
}

// TestHTTPUnreachableServiceFailsOutstanding cuts polling off at the
// transport: once retries exhaust, the driver reports one failure per
// outstanding assignment so the Task Manager can finalize short, and
// lifecycle calls fall back to client-known state.
func TestHTTPUnreachableServiceFailsOutstanding(t *testing.T) {
	down := errors.New("network down")
	gate := &failingTransport{base: http.DefaultTransport, err: down,
		match: func(req *http.Request) bool { return req.Method == http.MethodGet }}
	r := newHTTPRig(t, perfectPool{}, HTTPConfig{
		Client: &http.Client{Transport: gate}, MaxRetries: 1, Backoff: time.Millisecond})
	var mu sync.Mutex
	var failures []string
	r.client.SetErrorHandler(func(hitID string, err error) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf("%s: %v", hitID, err))
		mu.Unlock()
	})
	var got collect
	h := filterHIT(r.client.NewHITID(), "isCat", 2)
	if err := r.client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failure reports", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failures) == 2
	})
	mu.Lock()
	for _, f := range failures {
		if !strings.Contains(f, h.ID) || !strings.Contains(f, "retries exhausted") {
			t.Errorf("failure = %q", f)
		}
	}
	mu.Unlock()
	if got.len() != 0 {
		t.Fatalf("assignments delivered = %d", got.len())
	}
	// Status can't reach the service either: client-known state only.
	st, ok := r.client.Status(h.ID)
	if !ok || st.Completed != 0 || st.Spent != 0 {
		t.Fatalf("status = %+v ok=%v", st, ok)
	}
}

// failingTransport fails matching requests with a fixed error.
type failingTransport struct {
	base  http.RoundTripper
	match func(*http.Request) bool
	err   error
}

func (f *failingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if f.match(req) {
		return nil, f.err
	}
	return f.base.RoundTrip(req)
}
