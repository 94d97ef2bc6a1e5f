package dashboard

import (
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/hit"
	"repro/internal/mturk"
	"repro/internal/obs"
)

// Source supplies live data to the HTTP dashboard.
type Source interface {
	// Snapshot returns the current system view.
	Snapshot() Snapshot
	// Marketplace exposes open HITs and accepts audience submissions.
	Marketplace() *mturk.Marketplace
}

// Observable is the optional Source extension behind the observability
// endpoints (core.Engine implements it).
type Observable interface {
	// Metrics is the engine's metrics registry, which is always on.
	Metrics() *obs.Registry
	// QueryTrace is the root span of the query with that dashboard ID,
	// nil when tracing is off or the ID is unknown.
	QueryTrace(id int) *obs.Span
}

// NewHandler serves the demo's two interfaces:
//
//	GET  /            — the Query Status Dashboard (Figure 2)
//	GET  /tasks       — the Task Completion Interface: open HITs
//	GET  /hit?id=X    — one compiled HIT form (Figure 3 for joins)
//	POST /submit      — submit a HIT form as an audience worker
//
// and, when src also implements Observable:
//
//	GET  /metrics     — the metrics registry in Prometheus text format
//	GET  /trace/{id}  — one query's span tree as JSON (when the engine traces)
func NewHandler(src Source) http.Handler {
	mux := http.NewServeMux()
	if o, ok := src.(Observable); ok {
		registerObs(mux, o)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>Qurk Dashboard</title>"+
			"<meta http-equiv=\"refresh\" content=\"2\"></head><body>")
		fmt.Fprintf(w, "<pre>%s</pre>", html.EscapeString(Render(src.Snapshot())))
		fmt.Fprintf(w, `<p><a href="/tasks">Task Completion Interface →</a></p></body></html>`)
	})

	mux.HandleFunc("/tasks", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		open := src.Marketplace().OpenHITs()
		fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>Qurk Tasks</title></head><body>")
		fmt.Fprintf(w, "<h1>Open HITs (%d)</h1><p>Help the running queries by answering a task below.</p><ul>", len(open))
		for _, st := range open {
			fmt.Fprintf(w, `<li><a href="/hit?id=%s">%s</a> — %s, %d question(s), %d of %d assignments done</li>`,
				html.EscapeString(st.HIT.ID), html.EscapeString(st.HIT.ID),
				html.EscapeString(st.HIT.Task), st.HIT.QuestionCount(), st.Completed, st.HIT.Assignments)
		}
		fmt.Fprintf(w, `</ul><p><a href="/">← Dashboard</a></p></body></html>`)
	})

	mux.HandleFunc("/hit", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		st, ok := src.Marketplace().Status(id)
		if !ok {
			http.Error(w, "unknown HIT", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, hit.Compile(st.HIT))
	})

	mux.HandleFunc("/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id := r.PostForm.Get("hit")
		st, ok := src.Marketplace().Status(id)
		if !ok {
			http.Error(w, "unknown HIT", http.StatusNotFound)
			return
		}
		worker := r.PostForm.Get("worker")
		if worker == "" {
			worker = "audience"
		}
		ans, err := hit.ParseForm(st.HIT, r.PostForm, worker)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := src.Marketplace().SubmitExternal(id, ans); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<!DOCTYPE html><html><body><p>Thanks! Your answers were recorded.</p>`+
			`<p><a href="/tasks">Answer another task →</a></p></body></html>`)
	})
	return withoutDirectoryListing(mux)
}

// registerObs wires the observability endpoints. /metrics always
// serves; /trace/{id} answers 404 when the engine runs without
// Config.Trace.
func registerObs(mux *http.ServeMux, o Observable) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = o.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/trace/"))
		if err != nil {
			http.Error(w, "want /trace/{query-id}", http.StatusBadRequest)
			return
		}
		root := o.QueryTrace(id)
		if root == nil {
			http.Error(w, "no trace for that query (tracing off or unknown id)", http.StatusNotFound)
			return
		}
		buf, err := obs.MarshalTree(root)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(buf)
	})
}

func withoutDirectoryListing(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "..") {
			http.Error(w, "bad path", http.StatusBadRequest)
			return
		}
		h.ServeHTTP(w, r)
	})
}
