package backend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// twoItemHIT is a two-question yes/no HIT (keys k1, k2).
func twoItemHIT(id string, assignments int) *hit.HIT {
	return &hit.HIT{
		ID: id, Task: "isCat", Type: qlang.TaskFilter,
		Question: "cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items: []hit.Item{
			{Key: "k1", Args: []relation.Value{relation.NewImage("a.png")}},
			{Key: "k2", Args: []relation.Value{relation.NewImage("b.png")}},
		},
		RewardCents: 2, Assignments: assignments,
	}
}

// wireValues builds a wire assignment's values from key/value pairs.
func wireValues(kv ...any) map[string]string {
	out := make(map[string]string)
	for i := 0; i < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case relation.Value:
			out[kv[i].(string)] = encodeValue(v)
		case string:
			out[kv[i].(string)] = v // raw, possibly undecodable
		}
	}
	return out
}

// scriptedService is a one-HIT wire service that accepts the post and
// then serves a fixed assignment page, so a test decides exactly what
// the client must decode.
type scriptedService struct {
	mu   sync.Mutex
	page wirePage
}

func (s *scriptedService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/hits":
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{}`))
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/assignments"):
		body, _ := json.Marshal(s.page)
		_, _ = w.Write(body)
	default:
		body, _ := json.Marshal(wireStatus{})
		_, _ = w.Write(body)
	}
}

// TestHTTPClientRejectsMalformedAssignments: a page assignment that
// skips a question or answers a foreign one is undecodable, exactly like
// one carrying a bad value — reported to the error handler, never
// delivered, and neither counted as completed nor paid.
func TestHTTPClientRejectsMalformedAssignments(t *testing.T) {
	yes, no := relation.NewBool(true), relation.NewBool(false)
	svc := &scriptedService{page: wirePage{Next: 5, Done: true, Assignments: []wireAssignment{
		{ID: "a1", WorkerID: "w1", Values: wireValues("k1", yes, "k2", no)},
		{ID: "a2", WorkerID: "w2", Values: wireValues("k1", yes)},
		{ID: "a3", WorkerID: "w3", Values: wireValues("k1", yes, "k2", no, "k9", yes)},
		{ID: "a4", WorkerID: "w4", Values: wireValues("k1", yes, "k2", "!!not base64")},
		{ID: "a5", WorkerID: "w5", Values: wireValues("k2", yes, "k1", no)},
	}}}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	client, err := NewHTTP(HTTPConfig{BaseURL: ts.URL, Clock: mturk.NewClock(),
		PollInterval: time.Millisecond, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var mu sync.Mutex
	var failures []string
	client.SetErrorHandler(func(hitID string, err error) {
		mu.Lock()
		failures = append(failures, err.Error())
		mu.Unlock()
	})
	var got collect
	h := twoItemHIT(client.NewHITID(), 5)
	if err := client.Post(h, got.add); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every assignment settled", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got.len()+len(failures) == 5
	})
	mu.Lock()
	for _, f := range failures {
		if !strings.Contains(f, "undecodable assignment") {
			t.Errorf("failure = %q", f)
		}
	}
	if len(failures) != 3 {
		t.Errorf("failures = %q, want a2, a3 and a4", failures)
	}
	mu.Unlock()
	got.mu.Lock()
	if len(got.results) != 2 {
		t.Fatalf("delivered %d assignments, want a1 and a5", len(got.results))
	}
	// Keyed answers land at their questions' positions, whatever the
	// wire's key order.
	for i, want := range [][2]bool{{true, false}, {false, true}} {
		vals := got.results[i].Answers.Values
		if len(vals) != 2 || vals[0].Truthy() != want[0] || vals[1].Truthy() != want[1] {
			t.Errorf("assignment %d sheet = %v, want %v", i, vals, want)
		}
	}
	got.mu.Unlock()
	if st := client.Stats(); st.AssignmentsCompleted != 2 || st.SpentCents != 4 {
		t.Errorf("stats = %+v, want only the two delivered assignments paid", st)
	}
}

// TestHTTPExternalChecksSheet: the server's external endpoint answers 400
// to an assignment missing a question, naming a foreign one or carrying
// a bad value, and fills no slot; the client refuses a sheet of the
// wrong length before it reaches the wire.
func TestHTTPExternalChecksSheet(t *testing.T) {
	// No simulated worker ever claims, so every slot stays open for
	// external submissions.
	r := newHTTPRig(t, noWorkerPool{}, HTTPConfig{})
	h := twoItemHIT(r.client.NewHITID(), 2)
	if err := r.client.Post(h, func(mturk.AssignmentResult) {}); err != nil {
		t.Fatal(err)
	}
	yes := relation.NewBool(true)
	post := func(values map[string]string) int {
		body, _ := json.Marshal(wireAssignment{WorkerID: "human", Values: values})
		resp, err := http.Post(r.ts.URL+"/hits/"+h.ID+"/external", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, values := range map[string]map[string]string{
		"missing key": wireValues("k1", yes),
		"foreign key": wireValues("k1", yes, "k2", yes, "k9", yes),
		"bad value":   wireValues("k1", yes, "k2", "!!"),
	} {
		if code := post(values); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	for _, n := range []int{1, 3} {
		sheet := hit.Answers{WorkerID: "human", Values: make([]relation.Value, n)}
		if err := r.client.SubmitExternal(h.ID, sheet); err == nil {
			t.Errorf("client accepted a sheet of %d answers for 2 questions", n)
		}
	}
	if st, _ := r.srv.market.Status(h.ID); st.Completed != 0 {
		t.Fatalf("malformed submissions filled %d slots", st.Completed)
	}
	if code := post(wireValues("k2", yes, "k1", yes)); code != http.StatusOK {
		t.Fatalf("well-formed keyed submission: status %d", code)
	}
	if err := r.client.SubmitExternal(h.ID, hit.Answers{WorkerID: "human-2", Values: []relation.Value{yes, yes}}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.srv.market.Status(h.ID); st.Completed != 2 {
		t.Fatalf("completed = %d, want both well-formed submissions", st.Completed)
	}
}

// noWorkerPool never produces a worker.
type noWorkerPool struct{}

func (noWorkerPool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	return mturk.Claim{}, false
}
