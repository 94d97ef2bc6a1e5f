package backend_test

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/budget"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/taskmgr"
)

// These tests drive the full Task Manager over the HTTP driver against
// the sandboxed server, with faults injected on the wire. They live in
// an external test package because taskmgr itself imports backend.

// truePool answers every question true after one virtual minute.
type truePool struct{}

func (truePool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{
		WorkerID: "w1",
		Delay:    time.Minute,
		Answer: func() (hit.Answers, error) {
			vals := make([]relation.Value, h.QuestionCount())
			for i := range vals {
				vals[i] = relation.NewBool(true)
			}
			return hit.Answers{Values: vals}, nil
		},
	}, true
}

// emptyPool never produces a worker.
type emptyPool struct{}

func (emptyPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{}, false
}

// blockTransport wedges matching requests until release closes or the
// request context dies.
type blockTransport struct {
	match   func(*http.Request) bool
	release chan struct{}
}

func (g *blockTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.match(req) {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-g.release:
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

const integrationScript = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
`

type wireRig struct {
	market  *mturk.Marketplace
	srv     *backend.Server
	client  *backend.HTTP
	mgr     *taskmgr.Manager
	def     *qlang.TaskDef
	account *budget.Account
}

func newWireRig(t *testing.T, pool mturk.WorkerPool, transport http.RoundTripper) *wireRig {
	t.Helper()
	serverClock := mturk.NewClock()
	market := mturk.NewMarketplace(serverClock, pool)
	srv := backend.NewServer(market, serverClock)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	engineClock := mturk.NewClock()
	httpClient := &http.Client{}
	if transport != nil {
		httpClient.Transport = transport
	}
	client, err := backend.NewHTTP(backend.HTTPConfig{
		BaseURL:      ts.URL,
		Client:       httpClient,
		Clock:        engineClock,
		PollInterval: time.Millisecond,
		Backoff:      time.Millisecond,
		Sleep:        func(time.Duration) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	script, err := qlang.Parse(integrationScript)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := script.Task("isCat")
	account := budget.NewAccount(0)
	mgr := taskmgr.NewWithBackend(client, nil, nil, account)

	stop := make(chan struct{})
	go engineClock.Run(func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	})
	t.Cleanup(func() { close(stop); engineClock.Close() })
	return &wireRig{market: market, srv: srv, client: client, mgr: mgr, def: def, account: account}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
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

// TestTaskmgrOverTornWire tears the POST response and several poll pages
// while the Task Manager runs real work over the wire. Every item must
// resolve exactly once, the in-flight table must drain, the server must
// have seen exactly one HIT per batch (no re-posts), and the account
// must have spent exactly what the marketplace charged.
func TestTaskmgrOverTornWire(t *testing.T) {
	r := newWireRig(t, truePool{}, nil)
	r.srv.TearNext(3)

	const items = 3
	outcomes := make(chan taskmgr.Outcome, items)
	for i := 0; i < items; i++ {
		r.mgr.Submit(taskmgr.Request{
			Def:  r.def,
			Args: []relation.Value{relation.NewImage(fmt.Sprintf("cat-%d.png", i))},
			Done: func(o taskmgr.Outcome) { outcomes <- o },
		})
	}
	for i := 0; i < items; i++ {
		select {
		case o := <-outcomes:
			if o.Err != nil {
				t.Fatalf("outcome error: %v", o.Err)
			}
			if !o.Value.Truthy() {
				t.Errorf("outcome = %v, want true", o.Value)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("item %d never resolved; inflight=%d", i, r.mgr.Inflight())
		}
	}
	waitUntil(t, "inflight drain", func() bool { return r.mgr.Inflight() == 0 })
	if n := r.srv.Posted(); n != items {
		t.Fatalf("server posted %d HITs, want %d (torn responses must not re-post)", n, items)
	}
	if spent := r.market.Stats().SpentCents; r.account.Spent() != spent {
		t.Fatalf("account spent %v, marketplace charged %v", r.account.Spent(), spent)
	}
}

// TestTaskmgrScopeCancelRefundsOverWire cancels a query scope while its
// HIT is outstanding on the wire. The dispose travels to the server and
// the uncompleted assignments are refunded in full — no money leaks into
// a HIT whose results will never arrive.
func TestTaskmgrScopeCancelRefundsOverWire(t *testing.T) {
	gate := &blockTransport{
		match:   func(req *http.Request) bool { return strings.Contains(req.URL.Path, "/assignments") },
		release: make(chan struct{}),
	}
	defer close(gate.release)
	// The server's pool never produces a worker, so nothing is ever
	// paid server-side; the gate keeps the failure pages from reaching
	// the client, leaving the HIT genuinely outstanding.
	r := newWireRig(t, emptyPool{}, gate)

	scope := r.mgr.NewScope()
	outcome := make(chan taskmgr.Outcome, 1)
	r.mgr.Submit(taskmgr.Request{
		Def:   r.def,
		Args:  []relation.Value{relation.NewImage("cat.png")},
		Scope: scope,
		Done:  func(o taskmgr.Outcome) { outcome <- o },
	})
	waitUntil(t, "HIT posted", func() bool { return r.srv.Posted() == 1 })
	if charged := r.account.Spent(); charged <= 0 {
		t.Fatalf("account charged %v, want > 0", charged)
	}

	scope.Cancel(errors.New("query canceled"))
	select {
	case o := <-outcome:
		if o.Err == nil {
			t.Fatal("canceled item resolved without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled item never resolved")
	}
	waitUntil(t, "refund", func() bool { return r.account.Spent() == 0 })
	waitUntil(t, "inflight drain", func() bool { return r.mgr.Inflight() == 0 })
}

// malformedService is a wire service whose posted one-question HIT's
// four assignments are one good answer, one with no value, one with two
// values and one whose value does not decode.
type malformedService struct{}

func (malformedService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	yes := base64.StdEncoding.EncodeToString(relation.NewBool(true).Encode(nil))
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/hits":
		var posted struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.NewDecoder(r.Body).Decode(&posted); err != nil || len(posted.Items) != 1 {
			http.Error(w, "want one item", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{}`)
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/assignments"):
		page := map[string]any{"next": 4, "done": true, "assignments": []map[string]any{
			{"id": "a1", "workerId": "w1", "values": []string{yes}},
			{"id": "a2", "workerId": "w2", "values": []string{}},
			{"id": "a3", "workerId": "w3", "values": []string{yes, yes}},
			{"id": "a4", "workerId": "w4", "values": []string{"!!not base64"}},
		}}
		_ = json.NewEncoder(w).Encode(page)
	default:
		fmt.Fprint(w, `{}`)
	}
}

// TestTaskmgrFinalizesShortOnMalformedWire: wire assignments with one
// value too few or one too many fail like an undecodable one, so the
// Task Manager finalizes the item from the one good vote.
func TestTaskmgrFinalizesShortOnMalformedWire(t *testing.T) {
	ts := httptest.NewServer(malformedService{})
	t.Cleanup(ts.Close)
	engineClock := mturk.NewClock()
	client, err := backend.NewHTTP(backend.HTTPConfig{BaseURL: ts.URL, Clock: engineClock,
		PollInterval: time.Millisecond, Backoff: time.Millisecond, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	script, err := qlang.Parse(integrationScript)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := script.Task("isCat")
	account := budget.NewAccount(0)
	mgr := taskmgr.NewWithBackend(client, nil, nil, account)
	outcome := make(chan taskmgr.Outcome, 1)
	mgr.Submit(taskmgr.Request{
		Def:         def,
		Args:        []relation.Value{relation.NewImage("cat.png")},
		Assignments: 4,
		Done:        func(o taskmgr.Outcome) { outcome <- o },
	})
	select {
	case o := <-outcome:
		if o.Err != nil {
			t.Fatalf("outcome error: %v", o.Err)
		}
		if !o.Value.Truthy() || len(o.Answers) != 1 {
			t.Fatalf("outcome = %v from %v, want true from the one good vote", o.Value, o.Answers)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("item never resolved")
	}
	waitUntil(t, "inflight drain", func() bool { return mgr.Inflight() == 0 })
	// The account paid for four assignments at post time; the client
	// paid out only the one it delivered.
	if st := client.Stats(); st.AssignmentsCompleted != 1 || st.SpentCents == 0 || 4*st.SpentCents != account.Spent() {
		t.Fatalf("stats = %+v with %v charged, want one of four assignments paid", st, account.Spent())
	}
}
