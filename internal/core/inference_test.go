package core

import (
	"strings"
	"testing"

	"repro/internal/dashboard"
	"repro/internal/workload"
)

// TestEngineInferenceAdaptiveRedundancy drives Config.Inference through
// the whole engine: a filter query under EM answer inference must post
// at the adaptive floor, return the same cats a majority run would, and
// surface the assignment savings on the dashboard.
func TestEngineInferenceAdaptiveRedundancy(t *testing.T) {
	ds := workload.Photos(30, 0.5, 0.5, 11)
	e := newEngine(t, Config{Inference: &InferenceConfig{Method: "em"}}, ds)
	rows, err := queryAll(e, `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !strings.Contains(row.Values[0].Str(), "feline") {
			t.Errorf("non-cat passed the filter: %v", row.Values[0])
		}
	}
	var wantCats int
	for _, row := range allRows(t, e, "photos") {
		if strings.Contains(row.Values[1].Str(), "feline") {
			wantCats++
		}
	}
	if len(rows) != wantCats {
		t.Fatalf("rows = %d, want %d cats", len(rows), wantCats)
	}

	snap := e.Snapshot()
	inf := snap.Inference
	if inf.Method != "em" {
		t.Fatalf("method = %q, want em", inf.Method)
	}
	if inf.AdaptiveHITs == 0 {
		t.Fatal("no HITs went through the adaptive loop")
	}
	// The near-perfect test crowd clears the posterior target at the
	// floor on (at least) most HITs, so the adaptive run must have
	// bought strictly fewer assignments than the policy cap and booked
	// the difference as savings.
	if inf.AssignmentsUsed >= inf.AssignmentsCap {
		t.Fatalf("used %d assignments of a %d cap — nothing saved", inf.AssignmentsUsed, inf.AssignmentsCap)
	}
	if inf.SavedCents <= 0 {
		t.Fatalf("saved = %v", inf.SavedCents)
	}
	if inf.ExtendFailures != 0 {
		t.Fatalf("extend failures = %d (sim backend supports extension)", inf.ExtendFailures)
	}
	out := dashboard.Render(snap)
	if !strings.Contains(out, "Inference: avg") {
		t.Fatalf("dashboard lacks the inference panel:\n%s", out)
	}
}

// TestEngineRejectsUnknownInferenceMethod: an unknown method would run
// majority voting silently, so New refuses it; the known ones pass in
// any case, as SetInference normalises them.
func TestEngineRejectsUnknownInferenceMethod(t *testing.T) {
	oracle := workload.Photos(1, 0.5, 0.5, 1).Oracle
	for _, method := range []string{"bradleyterry", "EM2", "dawid-skene"} {
		if e, err := New(Config{Oracle: oracle, Inference: &InferenceConfig{Method: method}}); err == nil {
			e.Close()
			t.Errorf("method %q: New accepted it", method)
		}
	}
	for _, method := range []string{"", "majority", "EM", " em "} {
		e, err := New(Config{Oracle: oracle, Inference: &InferenceConfig{Method: method}})
		if err != nil {
			t.Errorf("method %q: %v", method, err)
			continue
		}
		e.Close()
	}
}
