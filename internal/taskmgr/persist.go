package taskmgr

import (
	"repro/internal/stats"
	"repro/internal/store"
)

// RestoreSummary reports what Restore installed, for the dashboard's
// warm-start panel.
type RestoreSummary struct {
	// CacheEntries / CacheAnswers are the Task Cache contents restored.
	CacheEntries, CacheAnswers int64
	// Observations totals the statistics evidence restored (selectivity
	// trials + latency and agreement observation counts).
	Observations int64
	// Examples counts model training examples staged for attachment;
	// Workers and Votes the reputation restored.
	Examples, Workers, Votes int64
	// EntriesByTask breaks CacheEntries down per task so the dashboard
	// can price what a re-run would have paid under each task's policy.
	EntriesByTask map[string]int64
}

// Restore installs a replayed knowledge-store state into the manager's
// learning layers: cache entries become live cache contents, estimator
// counts become Statistics Manager state (combined and per join side),
// training examples are staged in the model registry (they train
// whatever model is attached, now or later), and reputation totals are
// folded into the worker records. Call it before submitting work —
// typically from engine construction — and call it at most once per
// store: restoring the same state twice double-counts evidence.
func (m *Manager) Restore(s *store.State) RestoreSummary {
	sum := RestoreSummary{EntriesByTask: make(map[string]int64)}

	for key, answers := range s.CacheEntries() {
		// The cache and the state share each replayed list; neither
		// copies it.
		m.cache.Put(key, answers)
		sum.CacheEntries++
		sum.CacheAnswers += int64(answers.Len())
		sum.EntriesByTask[key.Task]++
	}

	for _, task := range s.StatTasks() {
		st := m.state(task, nil)
		var combined stats.SelectivityState
		for side, counts := range s.Selectivities(task) {
			combined.Passes += counts.Passes
			combined.Trials += counts.Trials
			sum.Observations += int64(counts.Trials)
			if side != "" {
				st.sideEstimator(side).SetState(counts)
			}
		}
		if combined.Trials > 0 {
			st.selectivity.SetState(combined)
		}
		if lat := s.Latency(task); lat.N > 0 {
			st.latency.SetState(lat)
			sum.Observations += int64(lat.N)
		}
		if agr := s.Agreement(task); agr.N > 0 {
			st.agreement.SetState(agr)
			sum.Observations += int64(agr.N)
		}
		if ra := s.RankAgreement(task); ra.N > 0 {
			st.rankAgreementEstimator().SetState(ra)
			sum.Observations += int64(ra.N)
		}
	}

	for be, kinds := range s.BackendObservations() {
		for kind, st := range kinds {
			m.book.SetState(be, kind, st)
			sum.Observations += int64(st.Quality.N)
		}
	}

	for task, examples := range s.ModelExamples() {
		m.models.SeedExamples(task, examples)
		sum.Examples += int64(len(examples))
	}

	for worker, counts := range s.Reputations() {
		m.RestoreReputation(worker, counts.Votes, counts.Agreed)
		sum.Workers++
		sum.Votes += counts.Votes
	}

	for worker, st := range s.WorkerQualityStates() {
		m.RestoreWorkerQuality(worker, st)
		sum.Observations += int64(st.N)
	}
	return sum
}
