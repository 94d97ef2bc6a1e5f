// Command qurk-dashboard recreates the SIGMOD demo: it starts long-
// running versions of the paper's two queries against a small, slow
// simulated crowd, paces the virtual clock to real time, and serves
//
//	http://localhost:8080/        the Query Status Dashboard (Figure 2)
//	http://localhost:8080/tasks   the Task Completion Interface
//
// so a live audience can answer HITs (including the two-column join of
// Figure 3) and watch the queries advance. The engine runs with tracing
// on, so the observability surfaces are live too:
//
//	http://localhost:8080/metrics      Prometheus text metrics
//	http://localhost:8080/trace/{id}   one query's span tree as JSON
//	http://localhost:8080/debug/pprof  Go runtime profiles
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"

	"repro/internal/crowd"
	"repro/internal/dashboard"
	"repro/qurk"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	seed := flag.Int64("seed", 1, "workload and crowd seed")
	pace := flag.Float64("pace", 0.05, "real seconds per virtual second (0 = full speed)")
	workers := flag.Int("workers", 3, "simulated workers competing with the audience")
	flag.Parse()

	if err := run(*addr, *seed, *pace, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "qurk-dashboard:", err)
		os.Exit(1)
	}
}

func run(addr string, seed int64, pace float64, workers int) error {
	companies := qurk.Companies(12, seed)
	celebs := qurk.Celebrities(6, 12, 0.4, seed+1)
	eng, err := qurk.New(qurk.Config{
		Oracle: qurk.CombineOracles(companies.Oracle, celebs.Oracle),
		Crowd: crowd.Config{
			Seed:    seed,
			Workers: workers, // a small pool keeps HITs open for the audience
		},
		// The demo serves /trace/{id} (/metrics needs no tracing); at
		// audience speed the tracing overhead is invisible.
		Trace: true,
	})
	if err != nil {
		return err
	}
	defer eng.Close()
	for _, ds := range []qurk.Dataset{companies, celebs} {
		for _, t := range ds.Tables {
			if err := eng.Register(t); err != nil {
				return err
			}
		}
	}
	if err := eng.Define(`
TASK findCEO(String companyName)
RETURNS (String CEO, String Phone):
  TaskType: Question
  Text: "Find the CEO and the CEO's phone number for the company %s", companyName
  Response: Form(("CEO", String), ("Phone", String))

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Drag a picture of any Celebrity in the left column to their matching picture in the Spotted Star column to the right."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
`); err != nil {
		return err
	}

	// Pace the clock so the audience can race the simulated turkers.
	eng.Clock().SetPace(pace)

	// Start the demo's two long-running queries through the streaming
	// API; the drained cursors keep the dashboard's progress live while
	// Close (on shutdown) cancels whatever is still in flight.
	ctx := context.Background()
	for _, sql := range []string{
		`SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone FROM companies`,
		`SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`,
	} {
		rows, err := eng.Query(ctx, sql)
		if err != nil {
			return err
		}
		go func() {
			defer rows.Close()
			for rows.Next() {
			}
		}()
	}

	mux := http.NewServeMux()
	mux.Handle("/", dashboard.NewHandler(eng))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("Qurk demo dashboard on http://localhost%s/ (tasks at /tasks, metrics at /metrics, profiles at /debug/pprof)\n", addr)
	return http.ListenAndServe(addr, mux)
}
