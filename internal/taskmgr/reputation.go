package taskmgr

import (
	"sort"

	"repro/internal/hit"
	"repro/internal/infer"
	"repro/internal/store"
)

// WorkerQuality is Qurk's view of one worker, inferred purely from how
// often their answers agree with the majority vote — the signal the CIDR
// companion paper proposes for detecting spammers without gold data.
type WorkerQuality struct {
	ID        string
	Votes     int64
	Agreed    int64
	Agreement float64
}

type workerRecord struct {
	votes  int64
	agreed int64
}

// noteWorkerVotes credits or strikes every worker whose sheet answered
// question q of this HIT, based on the majority outcome; every sheet
// answers every question, and only sheets without a worker ID are
// skipped. It takes the dedicated reputation lock (never m.mu) so the
// marketplace's worker filter can consult reputations while the manager
// is posting under m.mu.
func (m *Manager) noteWorkerVotes(byWorker []hit.Answers, q int, majority bool) {
	j := m.getJournal()
	m.repMu.Lock()
	if m.workers == nil {
		m.workers = make(map[string]*workerRecord)
	}
	type vote struct {
		worker string
		agreed bool
	}
	var votes []vote
	for _, wa := range byWorker {
		if wa.WorkerID == "" {
			continue
		}
		v := wa.Values[q]
		rec, ok := m.workers[wa.WorkerID]
		if !ok {
			rec = &workerRecord{}
			m.workers[wa.WorkerID] = rec
		}
		rec.votes++
		agreed := v.Truthy() == majority
		if agreed {
			rec.agreed++
		}
		if j != nil {
			votes = append(votes, vote{worker: wa.WorkerID, agreed: agreed})
		}
	}
	m.repMu.Unlock()
	// Journal outside repMu: the marketplace's worker filter takes repMu
	// from inside marketplace calls and must never wait on persistence.
	for _, v := range votes {
		j.Append(store.Record{Kind: store.KindReputation, Worker: v.worker, Pass: v.agreed})
	}
}

// noteWorkerRankings scores Order-response workers against the
// Bradley–Terry consensus over an n-item comparison HIT's rankings: every item
// pair a worker orders like the consensus counts as an agreeing vote,
// every inversion as a strike. Boolean-vote reputation alone cannot see
// these workers — a spammer submitting arbitrary permutations never
// answers a yes/no question — but against the consensus their pair
// agreement hovers near one half, low enough for the same blocklist
// thresholds that catch vote spammers.
func (m *Manager) noteWorkerRankings(n int, rankings []Ranking) {
	if n < 2 || len(rankings) == 0 {
		return
	}
	ords := make([]infer.Ordering, len(rankings))
	for i, r := range rankings {
		ords[i] = infer.Ordering{Worker: r.WorkerID, Rank: r.Rank}
	}
	var bt infer.BradleyTerry
	consensus := bt.Consensus(n, ords)
	j := m.getJournal()
	type credit struct {
		worker        string
		agreed, total int
	}
	var credits []credit
	m.repMu.Lock()
	if m.workers == nil {
		m.workers = make(map[string]*workerRecord)
	}
	for _, o := range ords {
		if o.Worker == "" {
			continue
		}
		agreed, total := infer.PairAgreement(consensus, o)
		if total == 0 {
			continue
		}
		rec, ok := m.workers[o.Worker]
		if !ok {
			rec = &workerRecord{}
			m.workers[o.Worker] = rec
		}
		rec.votes += int64(total)
		rec.agreed += int64(agreed)
		if j != nil {
			credits = append(credits, credit{worker: o.Worker, agreed: agreed, total: total})
		}
	}
	m.repMu.Unlock()
	// Journal outside repMu, as aggregate totals — replay folds them
	// into the same per-worker counters noteWorkerVotes feeds.
	for _, c := range credits {
		j.Append(store.Record{Kind: store.KindReputationSum, Worker: c.worker, N: int64(c.total), M: int64(c.agreed)})
	}
}

// RestoreReputation folds replayed vote totals into a worker's record —
// the durable half of spam defense: a worker blocked in one engine run
// stays blocked in the next (once EnableBlocklist is re-armed) without
// re-paying for the bad votes that exposed them.
func (m *Manager) RestoreReputation(worker string, votes, agreed int64) {
	if worker == "" || votes <= 0 {
		return
	}
	m.repMu.Lock()
	defer m.repMu.Unlock()
	if m.workers == nil {
		m.workers = make(map[string]*workerRecord)
	}
	rec, ok := m.workers[worker]
	if !ok {
		rec = &workerRecord{}
		m.workers[worker] = rec
	}
	rec.votes += votes
	rec.agreed += agreed
}

// WorkerQualities reports the agreement-based reputation of every
// worker seen so far, sorted by ascending agreement (suspects first).
func (m *Manager) WorkerQualities() []WorkerQuality {
	m.repMu.Lock()
	defer m.repMu.Unlock()
	out := make([]WorkerQuality, 0, len(m.workers))
	for id, rec := range m.workers {
		wq := WorkerQuality{ID: id, Votes: rec.votes, Agreed: rec.agreed}
		if rec.votes > 0 {
			wq.Agreement = float64(rec.agreed) / float64(rec.votes)
		}
		out = append(out, wq)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Agreement != out[j].Agreement {
			return out[i].Agreement < out[j].Agreement
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// EnableBlocklist rejects assignments from workers whose majority
// agreement has fallen below minAgreement after at least minVotes
// boolean answers: the marketplace re-dispatches their assignments to
// someone else, like an MTurk qualification requirement.
func (m *Manager) EnableBlocklist(minVotes int64, minAgreement float64) {
	m.market.SetWorkerFilter(func(workerID string) bool {
		m.repMu.Lock()
		defer m.repMu.Unlock()
		rec, ok := m.workers[workerID]
		if !ok || rec.votes < minVotes {
			return true // not enough evidence yet
		}
		return float64(rec.agreed)/float64(rec.votes) >= minAgreement
	})
}

// BlockedWorkers lists workers the current blocklist parameters would
// reject, for the dashboard.
func (m *Manager) BlockedWorkers(minVotes int64, minAgreement float64) []string {
	var out []string
	for _, wq := range m.WorkerQualities() {
		if wq.Votes >= minVotes && wq.Agreement < minAgreement {
			out = append(out, wq.ID)
		}
	}
	return out
}
