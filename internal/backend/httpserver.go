package backend

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Wire types: the MTurk-shaped REST surface both sides of the HTTP
// driver speak. Values travel as base64 of the relation binary codec so
// every Kind round-trips exactly; an assignment's are in question order.

type wireItem struct {
	Task   string   `json:"task,omitempty"`
	Prompt string   `json:"prompt,omitempty"`
	Args   []string `json:"args,omitempty"`
}

type wireHIT struct {
	ID          string         `json:"id"`
	Task        string         `json:"task"`
	Type        int            `json:"type"`
	Title       string         `json:"title,omitempty"`
	Question    string         `json:"question,omitempty"`
	Response    qlang.Response `json:"response"`
	Items       []wireItem     `json:"items,omitempty"`
	Left        []wireItem     `json:"left,omitempty"`
	Right       []wireItem     `json:"right,omitempty"`
	RewardCents int64          `json:"rewardCents"`
	Assignments int            `json:"assignments"`
}

type wireAssignment struct {
	ID          string   `json:"id"`
	WorkerID    string   `json:"workerId"`
	Values      []string `json:"values"`
	SubmittedAt int64    `json:"submittedAt"`
	External    bool     `json:"external"`
}

type wireFailure struct {
	Error string `json:"error"`
}

type wirePage struct {
	Assignments []wireAssignment `json:"assignments"`
	Failures    []wireFailure    `json:"failures,omitempty"`
	Next        int              `json:"next"`
	Done        bool             `json:"done"`
}

type wireExtend struct {
	Extra int `json:"extra"`
}

type wireStatus struct {
	ID         string `json:"id"`
	Completed  int    `json:"completed"`
	SpentCents int64  `json:"spentCents"`
	Open       bool   `json:"open"`
}

func encodeValue(v relation.Value) string {
	return base64.StdEncoding.EncodeToString(v.Encode(nil))
}

// decodeWireValue decodes one wire value, spelled as encodeValue spells
// it: base64 alone would also accept line breaks and stray low bits.
func decodeWireValue(s string) (relation.Value, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return relation.Value{}, err
	}
	v, rest, err := relation.DecodeValue(raw)
	if err != nil || len(rest) != 0 {
		return relation.Value{}, fmt.Errorf("backend: bad value encoding: %v", err)
	}
	if encodeValue(v) != s {
		return relation.Value{}, fmt.Errorf("backend: non-canonical value encoding")
	}
	return v, nil
}

// encodeWireAssignment lays ans out as the wire carries it. It fails
// unless ans answers every question.
func encodeWireAssignment(h *hit.HIT, ans hit.Answers) (wireAssignment, error) {
	if err := h.CheckAnswers(ans); err != nil {
		return wireAssignment{}, err
	}
	wa := wireAssignment{WorkerID: ans.WorkerID, Values: make([]string, len(ans.Values))}
	for i, v := range ans.Values {
		wa.Values[i] = encodeValue(v)
	}
	return wa, nil
}

// decodeWireAssignment decodes a wire assignment as its worker's sheet
// for h. It fails on an undecodable value, or unless the assignment
// answers every question of h and no more.
func decodeWireAssignment(h *hit.HIT, wa wireAssignment) (hit.Answers, error) {
	ans := hit.Answers{WorkerID: wa.WorkerID, Values: make([]relation.Value, len(wa.Values))}
	if err := h.CheckAnswers(ans); err != nil {
		return hit.Answers{}, err
	}
	for i, enc := range wa.Values {
		v, err := decodeWireValue(enc)
		if err != nil {
			return hit.Answers{}, fmt.Errorf("answer %d: %v", i, err)
		}
		ans.Values[i] = v
	}
	return ans, nil
}

func encodeArgs(args []relation.Value) []string {
	out := make([]string, len(args))
	for i, a := range args {
		out[i] = encodeValue(a)
	}
	return out
}

// encodeWireItems encodes a HIT's items or one of its grid columns.
func encodeWireItems(items []hit.Item) []wireItem {
	var out []wireItem
	for _, it := range items {
		out = append(out, wireItem{Task: it.Task, Prompt: it.Prompt, Args: encodeArgs(it.Args)})
	}
	return out
}

// decodeWireItems decodes a wire HIT's items or one of its grid columns.
func decodeWireItems(ws []wireItem) ([]hit.Item, error) {
	var items []hit.Item
	for _, w := range ws {
		it := hit.Item{Task: w.Task, Prompt: w.Prompt}
		for _, s := range w.Args {
			v, err := decodeWireValue(s)
			if err != nil {
				return nil, err
			}
			it.Args = append(it.Args, v)
		}
		items = append(items, it)
	}
	return items, nil
}

// serverHIT is one posted HIT's server-side collection log: every
// assignment (and terminal failure) in arrival order, so clients page
// through with a cursor and dedupe by assignment ID.
type serverHIT struct {
	assignments []wireAssignment
	failures    []wireFailure
	expected    int
	settled     int // assignments + failures
}

// Server is an in-repo MTurk-shaped HTTP service: the sandbox the HTTP
// driver is developed and tested against. It wraps a real simulated
// marketplace (with its own clock and worker pool) and drains the clock
// after every mutation, so posted work completes before the response —
// the client's polling, retry, and idempotency machinery sees fully
// realistic payloads without wall-clock waits.
//
// Fault injection: FailNext serves 500s, TearNext truncates response
// bodies mid-write (after the marketplace has processed the request —
// the dangerous kind), DuplicateNext repeats assignment page entries.
type Server struct {
	market *mturk.Marketplace
	clock  *mturk.Clock

	mu     sync.Mutex
	hits   map[string]*serverHIT
	idem   map[string][]byte // Idempotency-Key → response body already sent
	fail   int
	tear   int
	dup    int
	reqs   int64
	posted int64
}

// NewServer wraps a marketplace and its clock as an HTTP service. The
// server installs itself as the marketplace's error handler; callers
// must not overwrite it.
func NewServer(market *mturk.Marketplace, clock *mturk.Clock) *Server {
	s := &Server{
		market: market,
		clock:  clock,
		hits:   make(map[string]*serverHIT),
		idem:   make(map[string][]byte),
	}
	market.SetErrorHandler(func(hitID string, err error) {
		s.mu.Lock()
		if sh, ok := s.hits[hitID]; ok {
			sh.failures = append(sh.failures, wireFailure{Error: err.Error()})
			sh.settled++
		}
		s.mu.Unlock()
	})
	return s
}

// FailNext makes the next n requests fail with 500 before processing.
func (s *Server) FailNext(n int) {
	s.mu.Lock()
	s.fail = n
	s.mu.Unlock()
}

// TearNext makes the next n responses truncate mid-body after the
// request has been fully processed.
func (s *Server) TearNext(n int) {
	s.mu.Lock()
	s.tear = n
	s.mu.Unlock()
}

// DuplicateNext makes the next n assignment pages deliver every entry
// twice, exercising client-side dedupe.
func (s *Server) DuplicateNext(n int) {
	s.mu.Lock()
	s.dup = n
	s.mu.Unlock()
}

// Requests returns how many requests the server has seen (including
// injected failures), for backoff-schedule assertions.
func (s *Server) Requests() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reqs
}

// Posted returns how many HITs reached the marketplace — the
// no-double-spend assertions pin this.
func (s *Server) Posted() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.posted
}

// drain steps the server's clock until no scheduled work remains, so
// every completion lands before the next response is served.
func (s *Server) drain() {
	for s.clock.Step() {
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reqs++
	if s.fail > 0 {
		s.fail--
		s.mu.Unlock()
		http.Error(w, "injected failure", http.StatusInternalServerError)
		return
	}
	s.mu.Unlock()

	var body []byte
	status := http.StatusOK
	var err error
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/hits":
		body, status, err = s.handlePost(r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/assignments"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/assignments")
		body, status, err = s.handleAssignments(id, r.URL.Query().Get("since"))
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/external"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/external")
		body, status, err = s.handleExternal(id, r)
	case r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/hits/") && strings.HasSuffix(r.URL.Path, "/extend"):
		id := strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/hits/"), "/extend")
		body, status, err = s.handleExtend(id, r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/hits/"):
		body, status, err = s.handleStatus(strings.TrimPrefix(r.URL.Path, "/hits/"))
	case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/hits/"):
		body, status, err = s.handleDispose(strings.TrimPrefix(r.URL.Path, "/hits/"))
	default:
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}

	s.mu.Lock()
	torn := s.tear > 0
	if torn {
		s.tear--
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if torn && len(body) > 1 {
		_, _ = w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, herr := hj.Hijack(); herr == nil {
				_ = conn.Close() // cut the connection mid-body
			}
		}
		return
	}
	_, _ = w.Write(body)
}

func (s *Server) handlePost(r *http.Request) ([]byte, int, error) {
	key := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if key != "" {
		if prev, ok := s.idem[key]; ok {
			s.mu.Unlock()
			return prev, http.StatusOK, nil
		}
	}
	s.mu.Unlock()

	var wh wireHIT
	if err := json.NewDecoder(r.Body).Decode(&wh); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad HIT body: %v", err)
	}
	h := &hit.HIT{
		ID:          wh.ID,
		Task:        wh.Task,
		Type:        qlang.TaskType(wh.Type),
		Title:       wh.Title,
		Question:    wh.Question,
		Response:    wh.Response,
		RewardCents: wh.RewardCents,
		Assignments: wh.Assignments,
	}
	var err error
	if h.Items, err = decodeWireItems(wh.Items); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if h.Left, err = decodeWireItems(wh.Left); err != nil {
		return nil, http.StatusBadRequest, err
	}
	if h.Right, err = decodeWireItems(wh.Right); err != nil {
		return nil, http.StatusBadRequest, err
	}

	s.mu.Lock()
	s.hits[h.ID] = &serverHIT{expected: h.Assignments}
	s.mu.Unlock()
	if err := s.market.Post(h, func(res mturk.AssignmentResult) {
		// The marketplace delivers only sheets that answer every
		// question, so the encoding cannot fail.
		wa, _ := encodeWireAssignment(h, res.Answers)
		s.mu.Lock()
		defer s.mu.Unlock()
		sh, ok := s.hits[res.HITID]
		if !ok {
			return
		}
		wa.ID = fmt.Sprintf("%s-a%03d", res.HITID, len(sh.assignments)+1)
		wa.SubmittedAt = int64(res.SubmittedAt)
		wa.External = res.External
		sh.assignments = append(sh.assignments, wa)
		if !res.External {
			sh.settled++
		}
	}); err != nil {
		s.mu.Lock()
		delete(s.hits, h.ID)
		s.mu.Unlock()
		return nil, http.StatusConflict, err
	}
	s.mu.Lock()
	s.posted++
	s.mu.Unlock()
	s.drain()

	body, _ := json.Marshal(map[string]string{"id": h.ID})
	if key != "" {
		s.mu.Lock()
		s.idem[key] = body
		s.mu.Unlock()
	}
	return body, http.StatusCreated, nil
}

func (s *Server) handleAssignments(id, sinceStr string) ([]byte, int, error) {
	since, _ := strconv.Atoi(sinceStr)
	s.mu.Lock()
	sh, ok := s.hits[id]
	if !ok {
		s.mu.Unlock()
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	page := wirePage{Next: len(sh.assignments), Done: sh.settled >= sh.expected}
	if since < len(sh.assignments) {
		page.Assignments = append(page.Assignments, sh.assignments[since:]...)
	}
	page.Failures = append(page.Failures, sh.failures...)
	dup := s.dup > 0
	if dup && len(page.Assignments) > 0 {
		s.dup--
		page.Assignments = append(page.Assignments, page.Assignments...)
	}
	s.mu.Unlock()
	body, _ := json.Marshal(page)
	return body, http.StatusOK, nil
}

func (s *Server) handleExternal(id string, r *http.Request) ([]byte, int, error) {
	var wa wireAssignment
	if err := json.NewDecoder(r.Body).Decode(&wa); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad assignment body: %v", err)
	}
	st, ok := s.market.Status(id)
	if !ok {
		return nil, http.StatusConflict, fmt.Errorf("mturk: unknown HIT %s", id)
	}
	ans, err := decodeWireAssignment(st.HIT, wa)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad assignment: %v", err)
	}
	if err := s.market.SubmitExternal(id, ans); err != nil {
		return nil, http.StatusConflict, err
	}
	s.drain()
	body, _ := json.Marshal(map[string]bool{"ok": true})
	return body, http.StatusOK, nil
}

func (s *Server) handleExtend(id string, r *http.Request) ([]byte, int, error) {
	key := r.Header.Get("Idempotency-Key")
	s.mu.Lock()
	if key != "" {
		if prev, ok := s.idem[key]; ok {
			s.mu.Unlock()
			return prev, http.StatusOK, nil
		}
	}
	s.mu.Unlock()

	var we wireExtend
	if err := json.NewDecoder(r.Body).Decode(&we); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad extend body: %v", err)
	}
	if we.Extra <= 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("extend by %d", we.Extra)
	}
	if err := s.market.ExtendAssignments(id, we.Extra); err != nil {
		return nil, http.StatusConflict, err
	}
	s.mu.Lock()
	if sh, ok := s.hits[id]; ok {
		sh.expected += we.Extra
	}
	s.mu.Unlock()
	s.drain()

	body, _ := json.Marshal(map[string]bool{"ok": true})
	if key != "" {
		s.mu.Lock()
		s.idem[key] = body
		s.mu.Unlock()
	}
	return body, http.StatusOK, nil
}

func (s *Server) handleStatus(id string) ([]byte, int, error) {
	st, ok := s.market.Status(id)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	body, _ := json.Marshal(wireStatus{
		ID: id, Completed: st.Completed, SpentCents: int64(st.Spent), Open: st.Open(),
	})
	return body, http.StatusOK, nil
}

func (s *Server) handleDispose(id string) ([]byte, int, error) {
	st, ok := s.market.Dispose(id)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown HIT %s", id)
	}
	body, _ := json.Marshal(wireStatus{
		ID: id, Completed: st.Completed, SpentCents: int64(st.Spent), Open: false,
	})
	return body, http.StatusOK, nil
}
