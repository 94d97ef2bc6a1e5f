package backend

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// twoItemHIT is a two-question yes/no HIT.
func twoItemHIT(id string, assignments int) *hit.HIT {
	return &hit.HIT{
		ID: id, Task: "isCat", Type: qlang.TaskFilter,
		Question: "cat?", Response: qlang.Response{Kind: qlang.ResponseYesNo},
		Items: []hit.Item{
			{Args: []relation.Value{relation.NewImage("a.png")}},
			{Args: []relation.Value{relation.NewImage("b.png")}},
		},
		RewardCents: 2, Assignments: assignments,
	}
}

// wireValues builds a wire assignment's values in question order: a
// relation.Value is encoded, a string goes on the wire as it is.
func wireValues(vals ...any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case relation.Value:
			out[i] = encodeValue(v)
		case string:
			out[i] = v // raw, possibly undecodable
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

// TestHTTPClientRejectsMalformedAssignments: a page assignment with one
// value too few or one too many is undecodable, exactly like one
// carrying a bad value — reported to the error handler, never
// delivered, and neither counted as completed nor paid.
func TestHTTPClientRejectsMalformedAssignments(t *testing.T) {
	yes, no := relation.NewBool(true), relation.NewBool(false)
	svc := &scriptedService{page: wirePage{Next: 5, Done: true, Assignments: []wireAssignment{
		{ID: "a1", WorkerID: "w1", Values: wireValues(yes, no)},
		{ID: "a2", WorkerID: "w2", Values: wireValues(yes)},
		{ID: "a3", WorkerID: "w3", Values: wireValues(yes, no, yes)},
		{ID: "a4", WorkerID: "w4", Values: wireValues(yes, "!!not base64")},
		{ID: "a5", WorkerID: "w5", Values: wireValues(no, yes)},
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
	// The i-th wire value answers question i.
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
// to an assignment with one value too few, one too many or a bad value,
// and fills no slot; the client refuses a sheet of the wrong length
// before it reaches the wire.
func TestHTTPExternalChecksSheet(t *testing.T) {
	// No simulated worker ever claims, so every slot stays open for
	// external submissions.
	r := newHTTPRig(t, noWorkerPool{}, HTTPConfig{})
	h := twoItemHIT(r.client.NewHITID(), 2)
	if err := r.client.Post(h, func(mturk.AssignmentResult) {}); err != nil {
		t.Fatal(err)
	}
	yes := relation.NewBool(true)
	post := func(values []string) int {
		body, _ := json.Marshal(wireAssignment{WorkerID: "human", Values: values})
		resp, err := http.Post(r.ts.URL+"/hits/"+h.ID+"/external", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for name, values := range map[string][]string{
		"one too few":  wireValues(yes),
		"one too many": wireValues(yes, yes, yes),
		"bad value":    wireValues(yes, "!!"),
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
	if code := post(wireValues(yes, yes)); code != http.StatusOK {
		t.Fatalf("well-formed submission: status %d", code)
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

// FuzzWireAssignment decodes arbitrary wire value arrays against four
// HITs: a yes/no batch, a two-field form HIT, a 2×3 grid and an Order
// HIT. Decoding never panics and accepts exactly the arrays of
// QuestionCount decodable values, and an accepted sheet re-encodes to
// the same array.
func FuzzWireAssignment(f *testing.F) {
	str := func(s string) []relation.Value { return []relation.Value{relation.NewString(s)} }
	hits := []*hit.HIT{
		twoItemHIT("HY", 1),
		{ID: "HF", Task: "findCEO", Type: qlang.TaskQuestion, Question: "CEO?",
			Response: qlang.Response{Kind: qlang.ResponseForm, Fields: []qlang.FormField{
				{Label: "CEO", Kind: relation.KindString}, {Label: "Phone", Kind: relation.KindString}}},
			Items: []hit.Item{{Args: str("Acme")}}, RewardCents: 1, Assignments: 1},
		{ID: "HG", Task: "samePerson", Type: qlang.TaskJoinPredicate, Question: "Match.",
			Response:    qlang.Response{Kind: qlang.ResponseJoinColumns},
			Left:        []hit.Item{{Args: str("a")}, {Args: str("b")}},
			Right:       []hit.Item{{Args: str("c")}, {Args: str("d")}, {Args: str("e")}},
			RewardCents: 1, Assignments: 1},
		{ID: "HO", Task: "rank", Type: qlang.TaskRank, Question: "Order.",
			Response:    qlang.Response{Kind: qlang.ResponseOrder},
			Items:       []hit.Item{{Args: str("x")}, {Args: str("y")}, {Args: str("z")}},
			RewardCents: 1, Assignments: 1},
	}
	yes, no := encodeValue(relation.NewBool(true)), encodeValue(relation.NewBool(false))
	ceo := encodeValue(relation.NewTuple(relation.Field{Name: "CEO", Value: relation.NewString("Jane")},
		relation.Field{Name: "Phone", Value: relation.Null}))
	seed := func(which int, values ...string) {
		body, _ := json.Marshal(values)
		f.Add(uint8(which), body)
	}
	seed(0, yes, no)
	seed(0, yes)
	seed(0, yes, no, yes)
	seed(0, yes, "!!not base64")
	seed(1, ceo)
	seed(1, yes+"\n")
	seed(2, yes, no, no, yes, no, no)
	seed(3, encodeValue(relation.NewInt(2)), encodeValue(relation.NewInt(0)), encodeValue(relation.NewInt(1)))
	f.Add(uint8(1), []byte(`null`))
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		var values []string
		if json.Unmarshal(body, &values) != nil {
			return
		}
		h := hits[int(which)%len(hits)]
		decodable := len(values) == h.QuestionCount()
		for _, s := range values {
			if _, err := decodeWireValue(s); err != nil {
				decodable = false
			}
		}
		ans, err := decodeWireAssignment(h, wireAssignment{WorkerID: "w", Values: values})
		if (err == nil) != decodable {
			t.Fatalf("HIT %s: %q decoded with error %v; want accepted = %v", h.ID, values, err, decodable)
		}
		if err != nil {
			return
		}
		back, err := encodeWireAssignment(h, ans)
		if err != nil {
			t.Fatalf("HIT %s: accepted sheet does not encode: %v", h.ID, err)
		}
		if back.WorkerID != "w" || !slices.Equal(back.Values, values) {
			t.Fatalf("HIT %s: %q re-encodes to %q", h.ID, values, back.Values)
		}
	})
}
