package core

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/qlang"
	"repro/internal/relation"
	"repro/internal/workload"
)

// catModel reads the ground truth the Photos workload encodes in each
// image ref — a deterministic stand-in for a model call.
func catModel(task string, tt qlang.TaskType, args []relation.Value) relation.Value {
	return relation.NewBool(len(args) > 0 && strings.Contains(args[0].Str(), "feline"))
}

func TestEnginePinsTaskToLLMBackend(t *testing.T) {
	ds := workload.Photos(12, 0.5, 0.5, 3)
	e := newEngine(t, Config{Backends: &BackendsConfig{
		LLM: backend.LLMConfig{Model: catModel, PriceCents: 1},
	}}, ds)
	// A separate task pinned to the LLM crowd at a premium human price:
	// the router quotes the model price instead, and the delta shows up
	// as routing savings.
	if err := e.Define(`
TASK llmIsCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Price: 3
  Backend: llm
`); err != nil {
		t.Fatal(err)
	}
	rows, err := queryAll(e, `SELECT img FROM photos WHERE llmIsCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !strings.Contains(row.Values[0].Str(), "feline") {
			t.Errorf("non-cat passed the LLM filter: %v", row.Values[0])
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
	var simHITs, llmHITs int64
	for _, bc := range snap.Backends.Counts {
		switch bc.Name {
		case "sim":
			simHITs = bc.HITs
		case "llm":
			llmHITs = bc.HITs
		}
	}
	if llmHITs == 0 || simHITs != 0 {
		t.Fatalf("backend counts = %+v, want all HITs on llm", snap.Backends.Counts)
	}
	// Policy price 3¢, model price 1¢, default 3 assignments per HIT.
	if want := llmHITs * 2 * 3; int64(snap.Backends.SavedCents) != want {
		t.Fatalf("saved = %v, want %d", snap.Backends.SavedCents, want)
	}
	// The simulated marketplace never saw the work.
	if e.Marketplace().Stats().HITsPosted != 0 {
		t.Fatalf("marketplace posted %d HITs", e.Marketplace().Stats().HITsPosted)
	}
}

func allRows(t *testing.T, e *Engine, table string) []relation.Tuple {
	t.Helper()
	tab, ok := e.Catalog().Table(table)
	if !ok {
		t.Fatalf("no table %s", table)
	}
	return tab.Snapshot()
}

func TestEngineRouteChoosesLLMForFilters(t *testing.T) {
	ds := workload.Photos(10, 0.5, 0.5, 7)
	e := newEngine(t, Config{Backends: &BackendsConfig{
		LLM: backend.LLMConfig{
			Model:      catModel,
			PriceCents: 1,
			Quality:    map[qlang.TaskType]float64{qlang.TaskFilter: 0.95},
		},
		Route: true,
	}}, ds)
	// isCat is unpinned; the optimizer's chooser routes filters to the
	// cheap high-prior LLM crowd.
	rows, err := queryAll(e, `SELECT img FROM photos WHERE isCat(img)`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if !strings.Contains(row.Values[0].Str(), "feline") {
			t.Errorf("non-cat passed: %v", row.Values[0])
		}
	}
	snap := e.Snapshot()
	var llmHITs int64
	for _, bc := range snap.Backends.Counts {
		if bc.Name == "llm" {
			llmHITs = bc.HITs
		}
	}
	if llmHITs == 0 {
		t.Fatalf("chooser routed nothing to llm: %+v", snap.Backends.Counts)
	}
}

func TestEngineRejectsBackendPinWithoutRouter(t *testing.T) {
	ds := workload.Photos(4, 0.5, 0.5, 3)
	e := newEngine(t, Config{}, ds)
	err := e.Define(`
TASK llmIsCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Backend: llm
`)
	if err == nil || !strings.Contains(err.Error(), "no backend router") {
		t.Fatalf("err = %v, want router-missing rejection", err)
	}
	// An unknown backend name is rejected even with a router.
	e2 := newEngine(t, Config{Backends: &BackendsConfig{
		LLM: backend.LLMConfig{Model: catModel},
	}}, ds)
	err = e2.Define(`
TASK httpIsCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
  Backend: http
`)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown-backend rejection", err)
	}
}
