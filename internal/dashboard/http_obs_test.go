package dashboard

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/mturk"
	"repro/internal/obs"
)

// obsSource is a Source that also implements Observable, with the
// contract core.Engine has: the registry is always on, and a query
// trace exists only when tracing is.
type obsSource struct {
	liveSource
	reg    *obs.Registry
	tracer *obs.Tracer
	root   *obs.Span
}

func (s *obsSource) Metrics() *obs.Registry { return s.reg }
func (s *obsSource) QueryTrace(id int) *obs.Span {
	if s.tracer == nil || id != 7 {
		return nil
	}
	return s.root
}

func newObsSource(t *testing.T, traced bool) *obsSource {
	live, _ := newLiveSource(t)
	src := &obsSource{liveSource: live, reg: obs.NewRegistry()}
	src.reg.Counter(obs.MetricQueries).Add(3)
	if traced {
		var now mturk.VirtualTime
		src.tracer = obs.New(func() mturk.VirtualTime { return now })
		src.root = src.tracer.StartRoot(obs.KindQuery, "SELECT 1")
		now = mturk.VirtualTime(60_000)
		op := src.root.Child(obs.KindOperator, "Filter(isCat)")
		op.AddHITs(2)
		op.End()
		src.root.End()
	}
	return src
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newObsSource(t, true)))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "qurk_queries_total 3") {
		t.Fatalf("/metrics missing the queries counter:\n%s", body)
	}
}

func TestHTTPTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newObsSource(t, true)))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/trace/7")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/trace/7 status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/trace/7 content-type = %q", ct)
	}
	var tree struct {
		Kind     string `json:"kind"`
		Name     string `json:"name"`
		Children []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			HITs int64  `json:"hits"`
		} `json:"children"`
	}
	if err := json.Unmarshal(body, &tree); err != nil {
		t.Fatalf("/trace/7 is not JSON: %v\n%s", err, body)
	}
	if tree.Kind != string(obs.KindQuery) || tree.Name != "SELECT 1" {
		t.Fatalf("root = %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "Filter(isCat)" || tree.Children[0].HITs != 2 {
		t.Fatalf("children = %+v", tree.Children)
	}

	get := func(path string) int {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/trace/999"); code != 404 {
		t.Errorf("/trace/999 = %d", code)
	}
	if code := get("/trace/xyz"); code != 400 {
		t.Errorf("/trace/xyz = %d", code)
	}
}

// TestHTTPObsDisabled pins the tracing-off posture: a Source that
// implements Observable but runs untraced (nil spans) still serves its
// always-on registry at /metrics, and /trace answers 404, like
// core.Engine without Config.Trace.
func TestHTTPObsDisabled(t *testing.T) {
	srv := httptest.NewServer(NewHandler(newObsSource(t, false)))
	defer srv.Close()

	for path, want := range map[string]int{"/metrics": 200, "/trace/7": 404} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s with tracing off = %d, want %d", path, resp.StatusCode, want)
		}
		if path == "/metrics" && !strings.Contains(string(body), "qurk_queries_total 3") {
			t.Errorf("/metrics with tracing off lacks the queries counter:\n%s", body)
		}
	}
}

// TestHTTPObsNotImplemented pins that a plain Source (no Observable)
// grows no endpoints at all.
func TestHTTPObsNotImplemented(t *testing.T) {
	src, _ := newLiveSource(t)
	srv := httptest.NewServer(NewHandler(src))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("/metrics on plain Source = %d, want 404", resp.StatusCode)
	}
}
