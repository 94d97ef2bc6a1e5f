package qurk_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/qurk"
)

// TestPublicAPITour exercises the whole facade the way the README does.
func TestPublicAPITour(t *testing.T) {
	ds := qurk.Companies(5, 1)
	eng, err := qurk.New(qurk.Config{
		Oracle: ds.Oracle,
		Crowd:  qurk.CrowdConfig{Seed: 1, MeanSkill: 0.97, SkillStd: 0.01, SpamFraction: 1e-9, AbandonRate: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, tab := range ds.Tables {
		if err := eng.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Define(`
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))
`); err != nil {
		t.Fatal(err)
	}
	rows, err := eng.Query(context.Background(), `
SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone
FROM companies`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("rows = %d", n)
	}
	// Policy knobs are reachable through the facade.
	pol := qurk.DefaultPolicy()
	if pol.Assignments != 3 {
		t.Fatalf("default policy = %+v", pol)
	}
	// Dashboard rendering and HTTP handler work through the facade.
	text := qurk.RenderDashboard(eng.Snapshot())
	if !strings.Contains(text, "findceo") {
		t.Fatalf("dashboard missing task:\n%s", text)
	}
	srv := httptest.NewServer(qurk.DashboardHandler(eng))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "Qurk") {
		t.Fatal("HTTP dashboard empty")
	}
}

func TestWorkloadsExported(t *testing.T) {
	if ds := qurk.Celebrities(2, 3, 0.5, 1); len(ds.Tables) != 2 {
		t.Error("Celebrities")
	}
	if ds := qurk.Photos(3, 0.5, 0.5, 1); ds.Tables[0].Len() != 3 {
		t.Error("Photos")
	}
	if ds := qurk.RankItems(3, 9, "score", 1); ds.Tables[0].Len() != 3 {
		t.Error("RankItems")
	}
	if ds := qurk.Reviews(3, 0.5, 1); ds.Tables[0].Len() != 3 {
		t.Error("Reviews")
	}
	a := qurk.Photos(1, 1, 1, 1)
	b := qurk.Companies(1, 1)
	combined := qurk.CombineOracles(a.Oracle, b.Oracle)
	if combined.Truth("isCat", []qurk.Value{a.Tables[0].Row(0).Get("img")}).IsNull() {
		t.Error("CombineOracles")
	}
}

// TestContextQueryFacade exercises the context-first surface through
// the facade: streaming Rows, per-query options, and typed errors.
func TestContextQueryFacade(t *testing.T) {
	ds := qurk.Photos(20, 0.5, 0.6, 1)
	eng, err := qurk.New(qurk.Config{
		Oracle: ds.Oracle,
		Crowd:  qurk.CrowdConfig{Seed: 1, MeanSkill: 0.97, SkillStd: 0.01, SpamFraction: 1e-9, AbandonRate: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, tab := range ds.Tables {
		if err := eng.Register(tab); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Define(`
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a cat? %s", photo
  Response: YesNo
`); err != nil {
		t.Fatal(err)
	}

	// A tight per-query budget surfaces the typed error mid-stream.
	rows, err := eng.Query(context.Background(), `SELECT img FROM photos WHERE isCat(img)`,
		qurk.WithBudget(qurk.Cents(3)), qurk.WithPriority(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, qurk.ErrBudgetExhausted) {
		t.Fatalf("want qurk.ErrBudgetExhausted, got %v", err)
	}
	if sunk := rows.Handle().SunkCents(); sunk > 3 {
		t.Fatalf("sunk %v past the 3¢ cap", sunk)
	}

	// Parse errors carry positions through the facade.
	_, err = eng.Query(context.Background(), "SELECT WHERE")
	var pe *qurk.ParseError
	if !errors.As(err, &pe) || pe.Line != 1 {
		t.Fatalf("want positioned *qurk.ParseError, got %v", err)
	}
}
