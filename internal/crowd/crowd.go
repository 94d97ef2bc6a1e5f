// Package crowd simulates the turker population. Workers have
// heterogeneous skill, speed and reliability; their answers are derived
// from a ground-truth Oracle with noise, so Qurk's redundancy, batching
// and model-training machinery faces the same phenomena as on the real
// MTurk: wrong answers, spammers, abandonment, and minutes-scale latency.
package crowd

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Oracle supplies ground truth for simulated answers. The workload
// generator implements it; Qurk itself never sees it.
type Oracle interface {
	// Truth returns the correct answer for a task applied to args.
	// For Rank/Rating tasks it returns the item's latent numeric score.
	// Truth must not retain args: the pool reuses one slice across the
	// pairs of a join grid.
	//
	// Truth must be pure: its answer may depend on task and args only,
	// never on when or how often it is called. The pool calls it while
	// claiming — under the pool's lock, at the claim's place in the
	// marketplace's schedule rather than when the assignment completes
	// — so an oracle that kept state, or called back into the pool or
	// the marketplace, would change or stall the simulation.
	Truth(task string, args []relation.Value) relation.Value
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(task string, args []relation.Value) relation.Value

// Truth implements Oracle.
func (f OracleFunc) Truth(task string, args []relation.Value) relation.Value {
	return f(task, args)
}

// Config parameterizes the synthetic population. Zero values take the
// documented defaults.
type Config struct {
	// Workers is the population size (default 100).
	Workers int
	// Seed makes the simulation reproducible (default 1).
	Seed int64
	// MeanSkill is the mean per-question accuracy of honest workers
	// (default 0.85); SkillStd its spread (default 0.08).
	MeanSkill, SkillStd float64
	// SpamFraction of workers answer without reading (default 0.05).
	SpamFraction float64
	// AbandonRate is the chance an accepted assignment is abandoned
	// and must be reposted (default 0.02).
	AbandonRate float64
	// Overhead is the fixed virtual time to accept and read a HIT
	// (default 30s); PerQuestion the marginal time per batched
	// question (default 15s).
	Overhead    time.Duration
	PerQuestion time.Duration
	// BatchPenalty is the per-extra-question multiplicative accuracy
	// decay (default 0.015): acc = skill * (1 - p*(q-1)), floored at
	// 0.55 * skill.
	BatchPenalty float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 100
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MeanSkill == 0 {
		c.MeanSkill = 0.85
	}
	if c.SkillStd == 0 {
		c.SkillStd = 0.08
	}
	if c.SpamFraction == 0 {
		c.SpamFraction = 0.05
	}
	if c.AbandonRate == 0 {
		c.AbandonRate = 0.02
	}
	if c.Overhead == 0 {
		c.Overhead = 30 * time.Second
	}
	if c.PerQuestion == 0 {
		c.PerQuestion = 15 * time.Second
	}
	if c.BatchPenalty == 0 {
		c.BatchPenalty = 0.015
	}
	return c
}

type worker struct {
	id       string
	skill    float64 // per-question accuracy before batch decay
	speed    float64 // multiplier on service time
	spammer  bool
	nextFree mturk.VirtualTime
	answered int
	correct  int
}

// Pool is a synthetic worker pool implementing mturk.WorkerPool. One
// lock guards the workers' schedules and tallies and the noise source,
// so the random sequence is the claim order's.
type Pool struct {
	cfg    Config
	oracle Oracle

	mu      sync.Mutex
	rng     *rand.Rand
	workers []*worker
}

// NewPool builds a population from cfg and a ground-truth oracle. One
// random sequence draws the workers' attributes and then, continuing,
// every claim's noise.
func NewPool(cfg Config, oracle Oracle) *Pool {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Pool{cfg: cfg, oracle: oracle, rng: rng}
	for i := 0; i < cfg.Workers; i++ {
		// The ceiling admits effectively-perfect reference crowds
		// (MeanSkill 1, tiny SkillStd): harnesses that run concurrent
		// queries need answers independent of claim interleaving, which
		// any per-answer error rate would break across reruns.
		skill := clamp(rng.NormFloat64()*cfg.SkillStd+cfg.MeanSkill, 0.55, 1.0)
		w := &worker{
			id:      fmt.Sprintf("worker-%03d", i+1),
			skill:   skill,
			speed:   clamp(rng.NormFloat64()*0.3+1.0, 0.4, 2.5),
			spammer: rng.Float64() < cfg.SpamFraction,
		}
		p.workers = append(p.workers, w)
	}
	return p
}

func clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}

// Claim implements mturk.WorkerPool: it picks the soonest-free worker,
// reserves their time, draws their (possibly noisy) answer to every
// question of the HIT, and returns a claim whose Answer callback
// delivers that sheet.
func (p *Pool) Claim(h *hit.HIT, now mturk.VirtualTime) (mturk.Claim, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.pickLocked(now)
	if w == nil {
		return mturk.Claim{}, false
	}
	q := effortOf(h)
	service := time.Duration(float64(p.cfg.Overhead+time.Duration(q)*p.cfg.PerQuestion) * w.speed)
	// Jitter ±20% so parallel workers desynchronize.
	service = time.Duration(float64(service) * (0.8 + 0.4*p.rng.Float64()))
	start := w.nextFree
	if now > start {
		start = now
	}
	finish := start + mturk.VirtualTime(service)
	w.nextFree = finish
	abandon := p.rng.Float64() < p.cfg.AbandonRate
	// Draw the whole sheet under the lock so the Answer closure is
	// race-free and the pool's random sequence is the claim order's.
	answer := p.prepareAnswersLocked(w, h, abandon)
	return mturk.Claim{
		WorkerID: w.id,
		Delay:    (finish - now).Duration(),
		Answer:   answer,
	}, true
}

// pickLocked returns the worker who can start soonest; among equally
// free workers it picks uniformly at random. Returns nil only for an
// empty pool.
func (p *Pool) pickLocked(now mturk.VirtualTime) *worker {
	if len(p.workers) == 0 {
		return nil
	}
	best := p.workers[0]
	ties := 1
	for _, w := range p.workers[1:] {
		switch {
		case w.nextFree < best.nextFree:
			best, ties = w, 1
		case w.nextFree == best.nextFree:
			ties++
			if p.rng.Intn(ties) == 0 {
				best = w
			}
		}
	}
	return best
}

// effortOf measures how much work a HIT demands of one worker. For the
// two-column join interface the worker scans len(Left)+len(Right) items
// to mark matches — not all L×R pairs — which is exactly why the
// interface batches so well (Figure 3); other HITs cost one unit per
// batched question.
func effortOf(h *hit.HIT) int {
	if h.Response.Kind == qlang.ResponseJoinColumns {
		return len(h.Left) + len(h.Right)
	}
	return h.QuestionCount()
}

// effectiveAccuracy applies the batch-size decay to a worker's skill.
func (p *Pool) effectiveAccuracy(w *worker, questions int) float64 {
	m := 1 - p.cfg.BatchPenalty*float64(questions-1)
	if m < 0.55 {
		m = 0.55
	}
	return w.skill * m
}

// prepareAnswersLocked draws the worker's answer sheet now, under the
// pool's lock, and returns a closure that delivers it. The draws go
// question by question in the HIT's order — Items, or the Left×Right
// grid row by row — each drawing correct (for non-spammers only), then
// u1, then u2, and the question's answer goes straight into its slot of
// the sheet. The closure only credits the worker's counts when the
// assignment completes.
func (p *Pool) prepareAnswersLocked(w *worker, h *hit.HIT, abandon bool) func() (hit.Answers, error) {
	if abandon {
		return func() (hit.Answers, error) {
			return hit.Answers{}, fmt.Errorf("crowd: %s abandoned the assignment", w.id)
		}
	}
	acc := p.effectiveAccuracy(w, effortOf(h))
	vals := make([]relation.Value, h.QuestionCount())
	correct := 0
	answer := func(i int, task string, args []relation.Value) {
		c := !w.spammer && p.rng.Float64() < acc
		u1 := p.rng.Float64()
		u2 := p.rng.NormFloat64()
		if c {
			correct++
		}
		vals[i] = noisyAnswer(h.Response, p.oracle.Truth(task, args), c, w.spammer, u1, u2)
	}
	if h.Response.Kind == qlang.ResponseJoinColumns {
		// One argument slice serves every pair (see Oracle).
		var args []relation.Value
		for i, l := range h.Left {
			for j, r := range h.Right {
				args = append(append(args[:0], l.Args...), r.Args...)
				answer(i*len(h.Right)+j, h.Task, args)
			}
		}
	} else {
		for i, it := range h.Items {
			answer(i, h.EffectiveTask(it), it.Args)
		}
	}
	if h.Response.Kind == qlang.ResponseOrder {
		hit.RankPositions(vals)
	}
	sheet := hit.Answers{WorkerID: w.id, Values: vals}
	nCorrect := correct // a copy: capturing correct would move it to the heap
	return func() (hit.Answers, error) {
		p.mu.Lock()
		w.answered += len(sheet.Values)
		w.correct += nCorrect
		p.mu.Unlock()
		return sheet, nil
	}
}

// noisyAnswer produces the worker's answer for one question.
func noisyAnswer(resp qlang.Response, truth relation.Value, correct, spammer bool, u1, u2 float64) relation.Value {
	switch resp.Kind {
	case qlang.ResponseYesNo, qlang.ResponseJoinColumns:
		t := truth.Truthy()
		if spammer {
			// Spammers click through without reading: biased toward
			// "no" but not perfectly correlated with each other, so
			// they cannot reliably swing majorities in unison.
			return relation.NewBool(u1 < 0.3)
		}
		if correct {
			return relation.NewBool(t)
		}
		return relation.NewBool(!t)
	case qlang.ResponseRating:
		lo, hi := resp.ScaleMin, resp.ScaleMax
		t := int(truth.Float())
		if spammer {
			return relation.NewInt(int64(lo + int(u1*float64(hi-lo+1)))) // uniform junk
		}
		if correct {
			return relation.NewInt(int64(clampInt(t, lo, hi)))
		}
		off := 1 + int(math.Abs(u2))
		if u1 < 0.5 {
			off = -off
		}
		return relation.NewInt(int64(clampInt(t+off, lo, hi)))
	case qlang.ResponseChoice:
		if correct && !spammer {
			return truth
		}
		idx := int(u1 * float64(len(resp.Options)))
		if idx >= len(resp.Options) {
			idx = len(resp.Options) - 1
		}
		return relation.NewString(resp.Options[idx])
	case qlang.ResponseOrder:
		// Return the noisy latent score; hit.RankPositions converts
		// the sheet's scores to ranks.
		score := truth.Float()
		if spammer {
			// Spammers order without looking: a fresh uniform fake score
			// per item decouples their ranking from the truth entirely,
			// inverting pairs at random — exactly the failure mode the
			// win-ratio aggregation has to outvote.
			return relation.NewFloat(u1 * 100)
		}
		if !correct {
			// Honest mistakes are local: a perturbation on the order of
			// one scale step swaps an item with its neighbours
			// (adjacent-pair inversions), not across the whole list —
			// workers confuse close items, not obvious ones.
			score += u2 * 1.5
		}
		return relation.NewFloat(score)
	default: // ResponseForm: free text / tuples
		if correct && !spammer {
			return truth
		}
		return corruptText(truth, u1)
	}
}

func clampInt(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// corruptText produces a plausibly wrong free-text answer: empty (lazy)
// or a corrupted variant, recursing through tuples.
func corruptText(truth relation.Value, u float64) relation.Value {
	switch truth.Kind() {
	case relation.KindTuple:
		fields := truth.Fields()
		out := make([]relation.Field, len(fields))
		for i, f := range fields {
			out[i] = relation.Field{Name: f.Name, Value: corruptText(f.Value, u)}
		}
		return relation.NewTuple(out...)
	case relation.KindInt:
		return relation.NewInt(truth.Int() + 1 + int64(u*5))
	case relation.KindFloat:
		return relation.NewFloat(truth.Float() * (1.1 + u))
	case relation.KindBool:
		return relation.NewBool(!truth.Bool())
	default:
		if u < 0.3 {
			return relation.NewString("") // left blank
		}
		return relation.NewString("(unknown)")
	}
}

// WorkerStats is the simulator-side truth about one worker, used by
// experiment harnesses (Qurk itself never sees it).
type WorkerStats struct {
	ID       string
	Skill    float64
	Spammer  bool
	Answered int
	Correct  int
}

// Stats returns per-worker simulation statistics sorted by ID.
func (p *Pool) Stats() []WorkerStats {
	out := make([]WorkerStats, 0, p.Size())
	p.mu.Lock()
	for _, w := range p.workers {
		out = append(out, WorkerStats{ID: w.id, Skill: w.skill, Spammer: w.spammer,
			Answered: w.answered, Correct: w.correct})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Size returns the population size.
func (p *Pool) Size() int { return len(p.workers) }
