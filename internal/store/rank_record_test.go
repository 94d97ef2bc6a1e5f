package store

import (
	"testing"
)

// TestRankPairRecordsFoldAndSnapshot: live KindRankPair observations
// fold into the per-task comparison-agreement EWMA, survive the
// snapshot round-trip as KindRankPairSum, and keep the state
// fingerprint stable across replay.
func TestRankPairRecordsFoldAndSnapshot(t *testing.T) {
	s := newState()
	s.apply(Record{Kind: KindRankPair, Task: "orderit", X: 0.9, N: 10})
	s.apply(Record{Kind: KindRankPair, Task: "orderit", X: 1.0, N: 6})
	ra := s.RankAgreement("orderit")
	if ra.N != 2 {
		t.Fatalf("N = %d, want 2 observations", ra.N)
	}
	if ra.Value <= 0.9 || ra.Value > 1 {
		t.Fatalf("value = %v", ra.Value)
	}
	if got := s.RankAgreement("other"); got.N != 0 {
		t.Fatalf("unknown task state = %+v", got)
	}

	// Snapshot → replay reproduces the same estimator state.
	s2 := newState()
	for _, rec := range s.snapshotRecords() {
		payload := rec.encode(nil)
		dec, err := decodeRecord(payload, interner{})
		if err != nil {
			t.Fatalf("decode %v: %v", rec.Kind, err)
		}
		s2.apply(dec)
	}
	if got := s2.RankAgreement("orderit"); got != ra {
		t.Fatalf("replayed state = %+v, want %+v", got, ra)
	}
	if s.Fingerprint() == newState().Fingerprint() {
		t.Fatal("fingerprint ignores rank records")
	}

	// Tasks carrying only rank evidence still appear in StatTasks, so
	// Manager.Restore visits them.
	found := false
	for _, task := range s.StatTasks() {
		if task == "orderit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("StatTasks = %v, missing orderit", s.StatTasks())
	}
}
