package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
)

// HTTPConfig configures the MTurk-shaped HTTP driver.
type HTTPConfig struct {
	// BaseURL is the service root (e.g. an httptest server URL).
	BaseURL string
	// Client is the HTTP client; nil uses a fresh default client.
	Client *http.Client
	// Clock is the engine clock the Task Manager stamps and schedules
	// on. The driver itself paces on wall time; it never steps this.
	Clock *mturk.Clock
	// PriceCents is the per-assignment quote; zero quotes the policy
	// price.
	PriceCents int64
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
	// PollInterval paces assignment polling (default 500ms).
	PollInterval time.Duration
	// MaxRetries bounds per-request retries (default 6).
	MaxRetries int
	// Backoff is the first retry delay (default 100ms); each retry
	// doubles it, plus up to 25% seeded jitter.
	Backoff time.Duration
	// Seed fixes the jitter sequence for reproducible tests.
	Seed int64
	// Sleep, when set, replaces time.Sleep for backoff and poll pacing
	// (tests pass a recorder that returns immediately).
	Sleep func(time.Duration)
}

func (c HTTPConfig) withDefaults() HTTPConfig {
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 6
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// HTTP is a worker backend speaking an MTurk-shaped REST API over a real
// network: wall-clock pacing, context-aware timeouts, exponential
// backoff with jitter, and idempotent re-posting — the HIT ID rides
// every POST as the Idempotency-Key, so a retry after a timeout, 5xx, or
// torn response lands at most once server-side and can never
// double-spend. Completed assignments arrive by polling with a cursor
// and are deduplicated by assignment ID, so duplicate delivery is safe
// too.
type HTTP struct {
	cfg    HTTPConfig
	nextID atomic.Int64
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	cfgMu   sync.RWMutex
	onError func(hitID string, err error)

	mu   sync.Mutex
	hits map[string]*httpHIT

	hitsPosted           atomic.Int64
	assignmentsCompleted atomic.Int64
	questionsAnswered    atomic.Int64
	spentCents           atomic.Int64
	externalSubmissions  atomic.Int64
}

// httpHIT is the client-side view of one posted HIT.
type httpHIT struct {
	hit      *hit.HIT
	postedAt mturk.VirtualTime
	cancel   context.CancelFunc
	seen     map[string]bool // assignment IDs already delivered
	failures int             // failure records already reported
	received int             // non-external assignments delivered
	extended int             // assignment slots added after posting
	extSeq   int             // extension requests issued (idempotency keys)
	disposed bool
}

// NewHTTP builds the driver. cfg.Clock is required.
func NewHTTP(cfg HTTPConfig) (*HTTP, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("backend: http: BaseURL required")
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("backend: http: Clock required")
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	return &HTTP{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		hits:   make(map[string]*httpHIT),
	}, nil
}

// Close cancels every in-flight request and poller and waits for them.
func (c *HTTP) Close() {
	c.cancel()
	c.wg.Wait()
}

// Name implements Backend.
func (c *HTTP) Name() string { return "http" }

// Clock implements Backend.
func (c *HTTP) Clock() *mturk.Clock { return c.cfg.Clock }

// NewHITID implements Backend.
func (c *HTTP) NewHITID() string { return mturk.PaddedID("HHIT-", c.nextID.Add(1)) }

// QuoteCents implements Pricer.
func (c *HTTP) QuoteCents(task string, tt qlang.TaskType, policyCents int64) int64 {
	if c.cfg.PriceCents > 0 {
		return c.cfg.PriceCents
	}
	return policyCents
}

// SetErrorHandler implements Backend; safe before or after posting.
func (c *HTTP) SetErrorHandler(fn func(hitID string, err error)) {
	c.cfgMu.Lock()
	c.onError = fn
	c.cfgMu.Unlock()
}

// SetWorkerFilter implements Backend. Worker eligibility lives on the
// remote service's side of the wire; the filter is accepted and ignored.
func (c *HTTP) SetWorkerFilter(fn func(workerID string) bool) {}

func (c *HTTP) reportError(hitID string, err error) {
	c.cfgMu.RLock()
	fn := c.onError
	c.cfgMu.RUnlock()
	if fn != nil {
		fn(hitID, err)
	}
}

// backoffDelay computes the attempt'th retry delay: exponential with up
// to 25% seeded jitter.
func (c *HTTP) backoffDelay(attempt int) time.Duration {
	d := c.cfg.Backoff << uint(attempt)
	c.rngMu.Lock()
	j := c.rng.Float64()
	c.rngMu.Unlock()
	return d + time.Duration(float64(d)*0.25*j)
}

// do runs one request with a per-attempt timeout, retrying 5xx and
// transport errors on the backoff schedule. idempotent requests carry
// the key so server-side retries land at most once.
func (c *HTTP) do(method, path, idemKey string, reqBody []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.cfg.Sleep(c.backoffDelay(attempt - 1))
		}
		if err := c.ctx.Err(); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(c.ctx, c.cfg.Timeout)
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(reqBody))
		if err != nil {
			cancel()
			return nil, err
		}
		if reqBody != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if idemKey != "" {
			req.Header.Set("Idempotency-Key", idemKey)
		}
		resp, err := c.cfg.Client.Do(req)
		if err != nil {
			cancel()
			if c.ctx.Err() != nil {
				return nil, c.ctx.Err()
			}
			lastErr = err // timeout or transport failure: retry
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		if err != nil {
			lastErr = fmt.Errorf("backend: http: torn response: %v", err)
			continue
		}
		switch {
		case resp.StatusCode >= 500:
			lastErr = fmt.Errorf("backend: http: %s %s: %s", method, path, resp.Status)
			continue // retryable
		case resp.StatusCode >= 400:
			return nil, fmt.Errorf("backend: http: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(body))
		}
		return body, nil
	}
	return nil, fmt.Errorf("backend: http: %s %s: retries exhausted: %w", method, path, lastErr)
}

// Post implements Backend: serialize, POST with the HIT ID as the
// idempotency key, then start a poller that delivers assignments.
func (c *HTTP) Post(h *hit.HIT, onAssignment func(mturk.AssignmentResult)) error {
	if err := h.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	if _, dup := c.hits[h.ID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("backend: http: duplicate HIT %s", h.ID)
	}
	c.mu.Unlock()

	wh := wireHIT{
		ID: h.ID, Task: h.Task, Type: int(h.Type), Title: h.Title,
		Question: h.Question, Response: h.Response,
		RewardCents: h.RewardCents, Assignments: h.Assignments,
		Items: encodeWireItems(h.Items), Left: encodeWireItems(h.Left), Right: encodeWireItems(h.Right),
	}
	body, err := json.Marshal(wh)
	if err != nil {
		return err
	}
	if _, err := c.do(http.MethodPost, "/hits", h.ID, body); err != nil {
		return err
	}

	ctx, cancel := context.WithCancel(c.ctx)
	ph := &httpHIT{hit: h, postedAt: c.cfg.Clock.Now(), cancel: cancel, seen: make(map[string]bool)}
	c.mu.Lock()
	c.hits[h.ID] = ph
	c.mu.Unlock()
	c.hitsPosted.Add(1)
	c.wg.Add(1)
	go c.poll(ctx, ph, onAssignment)
	return nil
}

// poll pages through the HIT's assignments until all expected work has
// settled, the HIT is disposed, or the driver closes.
func (c *HTTP) poll(ctx context.Context, ph *httpHIT, onAssignment func(mturk.AssignmentResult)) {
	defer c.wg.Done()
	h := ph.hit
	since := 0
	for {
		if ctx.Err() != nil {
			return
		}
		body, err := c.do(http.MethodGet, fmt.Sprintf("/hits/%s/assignments?since=%d", h.ID, since), "", nil)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// The service is unreachable beyond all retries: every
			// outstanding assignment is reported failed so the Task
			// Manager can finalize short and refund.
			c.mu.Lock()
			outstanding := h.Assignments + ph.extended - ph.received
			ph.disposed = true
			c.mu.Unlock()
			for i := 0; i < outstanding; i++ {
				c.reportError(h.ID, err)
			}
			return
		}
		var page wirePage
		if err := json.Unmarshal(body, &page); err != nil {
			continue // torn page: re-poll with the same cursor
		}
		since = page.Next
		done := false
		for _, wa := range page.Assignments {
			c.mu.Lock()
			if ph.disposed || ph.seen[wa.ID] {
				c.mu.Unlock()
				continue // duplicate delivery or late arrival
			}
			ph.seen[wa.ID] = true
			if !wa.External {
				ph.received++
			}
			c.mu.Unlock()
			ans, derr := decodeWireAssignment(h, wa)
			if derr != nil {
				c.reportError(h.ID, fmt.Errorf("backend: http: undecodable assignment %s: %v", wa.ID, derr))
				continue
			}
			c.assignmentsCompleted.Add(1)
			c.questionsAnswered.Add(int64(h.QuestionCount()))
			if !wa.External {
				c.spentCents.Add(h.RewardCents)
			} else {
				c.externalSubmissions.Add(1)
			}
			onAssignment(mturk.AssignmentResult{
				HITID: h.ID, Answers: ans,
				SubmittedAt: mturk.VirtualTime(wa.SubmittedAt), External: wa.External,
			})
		}
		c.mu.Lock()
		for ph.failures < len(page.Failures) {
			ph.failures++
			ferr := fmt.Errorf("backend: http: %s", page.Failures[ph.failures-1].Error)
			c.mu.Unlock()
			c.reportError(h.ID, ferr)
			c.mu.Lock()
		}
		done = page.Done && ph.received+ph.failures >= h.Assignments+ph.extended
		c.mu.Unlock()
		if done {
			return
		}
		c.cfg.Sleep(c.cfg.PollInterval)
	}
}

// SubmitExternal implements Backend: the sheet goes over the wire
// checked against the HIT, so the HIT must still be posted here.
func (c *HTTP) SubmitExternal(hitID string, ans hit.Answers) error {
	c.mu.Lock()
	ph, ok := c.hits[hitID]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("backend: http: unknown HIT %s", hitID)
	}
	wa, err := encodeWireAssignment(ph.hit, ans)
	if err != nil {
		return fmt.Errorf("backend: http: %w", err)
	}
	body, err := json.Marshal(wa)
	if err != nil {
		return err
	}
	_, err = c.do(http.MethodPost, "/hits/"+hitID+"/external", "", body)
	return err
}

// ExtendAssignments implements Extender: POST the extension under its
// own idempotency key (a retry after a timeout or 5xx lands at most
// once), then raise the poller's expectation so it keeps paging until
// the extra assignments arrive. When the adaptive loop extends from
// inside an assignment callback, the poller is blocked in that callback,
// so the raised expectation is always visible before its next done
// check.
func (c *HTTP) ExtendAssignments(hitID string, extra int) error {
	if extra <= 0 {
		return fmt.Errorf("backend: http: extend HIT %s by %d assignments", hitID, extra)
	}
	c.mu.Lock()
	ph, ok := c.hits[hitID]
	if !ok || ph.disposed {
		c.mu.Unlock()
		return fmt.Errorf("backend: http: unknown HIT %s", hitID)
	}
	ph.extSeq++
	key := fmt.Sprintf("%s-ext-%d", hitID, ph.extSeq)
	c.mu.Unlock()
	body, err := json.Marshal(wireExtend{Extra: extra})
	if err != nil {
		return err
	}
	if _, err := c.do(http.MethodPost, "/hits/"+hitID+"/extend", key, body); err != nil {
		return err
	}
	c.mu.Lock()
	ph.extended += extra
	c.mu.Unlock()
	return nil
}

// Dispose implements Backend: the poller stops first, so a completion
// racing the dispose is never delivered after it.
func (c *HTTP) Dispose(hitID string) (mturk.HITStatus, bool) {
	c.mu.Lock()
	ph, ok := c.hits[hitID]
	if ok {
		ph.disposed = true
		ph.cancel()
		delete(c.hits, hitID)
	}
	c.mu.Unlock()
	if !ok {
		return mturk.HITStatus{}, false
	}
	body, err := c.do(http.MethodDelete, "/hits/"+hitID, "", nil)
	st := mturk.HITStatus{HIT: ph.hit, PostedAt: ph.postedAt}
	if err != nil {
		// The service is unreachable: report what the client knows —
		// received assignments were paid, nothing else can arrive.
		st.Completed = ph.received
		st.Spent = budget.Cents(ph.hit.RewardCents * int64(ph.received))
		return st, true
	}
	var ws wireStatus
	if err := json.Unmarshal(body, &ws); err != nil {
		st.Completed = ph.received
		st.Spent = budget.Cents(ph.hit.RewardCents * int64(ph.received))
		return st, true
	}
	st.Completed = ws.Completed
	st.Spent = budget.Cents(ws.SpentCents)
	return st, true
}

// Status implements Backend.
func (c *HTTP) Status(hitID string) (mturk.HITStatus, bool) {
	c.mu.Lock()
	ph, ok := c.hits[hitID]
	c.mu.Unlock()
	if !ok {
		return mturk.HITStatus{}, false
	}
	body, err := c.do(http.MethodGet, "/hits/"+hitID, "", nil)
	st := mturk.HITStatus{HIT: ph.hit, PostedAt: ph.postedAt}
	if err != nil {
		st.Completed = ph.received
		st.Spent = budget.Cents(ph.hit.RewardCents * int64(ph.received))
		return st, true
	}
	var ws wireStatus
	if err := json.Unmarshal(body, &ws); err == nil {
		st.Completed = ws.Completed
		st.Spent = budget.Cents(ws.SpentCents)
	}
	return st, true
}

// Stats implements Backend.
func (c *HTTP) Stats() mturk.Stats {
	return mturk.Stats{
		HITsPosted:           int(c.hitsPosted.Load()),
		AssignmentsCompleted: int(c.assignmentsCompleted.Load()),
		QuestionsAnswered:    int(c.questionsAnswered.Load()),
		SpentCents:           budget.Cents(c.spentCents.Load()),
		ExternalSubmissions:  int(c.externalSubmissions.Load()),
	}
}
