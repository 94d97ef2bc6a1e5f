package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// tinySizes make every workload's minimum rounds finish in well under
// a second.
var tinySizes = sizes{
	CascadePhotos: 40, CascadeTables: 2, CascadeQueries: 3,
	LookupRows: 60, LookupsPerRound: 50, LookupRounds: 2,
	RankItems: 12, Celebs: 3, Spotted: 15, JoinSortSets: 2, JoinSortIters: 2,
	TenantRows: 80, TenantRange: 12, TenantQueries: 4, TenantRounds: 2,
	ReplayTimes: 2,
}

// tinyTolerated are the checks a tiny run may fail: it is too short for
// a p99, and the result floors are set for the default sizes (a 60-row
// Zipf lookup mix turns on two or three keys). Every other check must
// pass.
var tinyTolerated = map[string]bool{"latency_samples": true, "first_row_samples": true, "result_f1_floor": true}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// Long enough for the traced pass's CPU profile to take samples.
			opts := options{seed: 1, seconds: 400 * time.Millisecond, sizes: tinySizes, outDir: t.TempDir()}
			plain, err := measureWorkload(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := traceWorkload(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []report{plain, traced} {
				if rep.attempted == 0 {
					t.Fatal("no query attempted")
				}
				for name, n := range rep.failures {
					if !tinyTolerated[name] {
						t.Errorf("check %s failed %d times", name, n)
					}
				}
			}
			checkNames(t, "end-to-end", plain.metrics, endToEnd)
			checkNames(t, "host-time", plain.hostTimes, hostTimes)
			checkNames(t, "per-layer", traced.metrics, perLayer)
			sum := 0.0
			for _, m := range traced.metrics {
				if len(m.name) > 10 && m.name[:10] == "cpu_share." {
					sum += m.value
				}
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("cpu_share.* sum to %v", sum)
			}
		})
	}
}

func checkNames(t *testing.T, kind string, got []metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d metrics emitted, %d defined", kind, len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].name || m.unit != want[i].unit {
			t.Errorf("%s metric %d: emitted %s %s, defined %s %s", kind, i, m.name, m.unit, want[i].name, want[i].unit)
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps the metric lists and BENCHMARK.json
// identical, within BENCHMARK.json's limits on names and counts.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, lists := range []struct {
		code []metricDef
		json []def
	}{{endToEnd, doc.EndToEnd}, {perLayer, doc.PerLayer}} {
		if len(lists.code) != len(lists.json) {
			t.Fatalf("code defines %d metrics, BENCHMARK.json %d", len(lists.code), len(lists.json))
		}
		for i, d := range lists.code {
			if !valid.MatchString(d.name) || len(d.name) > 64 || seen[d.name] {
				t.Errorf("bad or repeated metric name %q", d.name)
			}
			seen[d.name] = true
			if j := lists.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: code %v, BENCHMARK.json %v", i, d, j)
			}
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: code %s, BENCHMARK.json %s", i, w.name, doc.Workloads[i].Name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		enough bool
	}{
		{1000, 99, 990, true},
		{999, 99, 990, false}, // only 9 samples above the 990th
		{1100, 99, 1089, true},
		{21, 50, 11, true},
		{19, 50, 10, false},
		{1, 50, 1, false},
	} {
		got, enough := percentile(seq(c.n), c.p)
		if got != c.want || enough != c.enough {
			t.Errorf("p%v of 1..%d = %v, %v; want %v, %v", c.p, c.n, got, enough, c.want, c.enough)
		}
	}
	if _, enough := percentile(nil, 50); enough {
		t.Error("percentile of no samples reported enough")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestF1Scorers(t *testing.T) {
	truth := map[int64]bool{1: true, 2: true, 4: true}
	for _, c := range []struct {
		got  []int64
		want map[int64]bool
		f1   float64
	}{
		{[]int64{1, 2, 4}, truth, 1},
		{[]int64{1, 2, 3}, truth, 2.0 / 3},                // precision 2/3, recall 2/3
		{[]int64{1}, truth, 0.5},                          // precision 1, recall 1/3
		{[]int64{1, 1}, map[int64]bool{1: true}, 2.0 / 3}, // a duplicate costs precision
		{nil, truth, 0},                                   // recall 0
		{[]int64{7}, map[int64]bool{}, 0},                 // a match where there is none
		{nil, map[int64]bool{}, 1},                        // nothing to find, nothing found
	} {
		if got := f1(c.got, c.want); math.Abs(got-c.f1) > 1e-12 {
			t.Errorf("f1(%v, %v) = %v, want %v", c.got, c.want, got, c.f1)
		}
	}
	top := []string{"a", "b", "c", "d"}
	if got := overlap([]string{"b", "a", "x", "y"}, top); got != 0.5 {
		t.Errorf("overlap = %v, want 0.5", got)
	}
	if got := overlap[string](nil, nil); got != 1 {
		t.Errorf("overlap of empty top = %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.mallocgc", "repro/internal/relation.(*Schema).Lookup", "repro/internal/exec.Eval", "main.main"}, "relation"},
		{[]string{"repro/internal/exec.Eval", "repro/internal/core.(*Engine).Query"}, "exec"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"time.Now", "main.(*timedPool).Claim", "repro/internal/mturk.(*Marketplace).dispatch"}, "bench"},
		{[]string{"repro/internal/workload.Photos.func1", "repro/internal/crowd.(*Pool).Claim"}, "crowd"},
		{[]string{"repro/internal/queue.(*Queue).Push"}, "exec"},
		{[]string{"repro/qurk.New"}, "core"},
		{[]string{"repro/internal/dashboard.Render"}, "other"},
		{nil, "runtime"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestProfileAttribution decodes a hand-built pprof profile, with one
// sample's fields packed and one's unpacked, and charges its CPU.
func TestProfileAttribution(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.memmove", "repro/internal/taskmgr.(*Manager).post", "main.run", "repro/internal/crowd.(*Pool).Claim"}
	var p []byte
	valueType := func(typ, unit uint64) []byte {
		return pbVarint(pbVarint(nil, 1, typ), 2, unit)
	}
	p = pbBytes(p, 1, valueType(1, 2))
	p = pbBytes(p, 1, valueType(3, 4))
	// Functions 1..4 name strings 5..8; location i holds function i.
	for id := uint64(1); id <= 4; id++ {
		p = pbBytes(p, 5, pbVarint(pbVarint(nil, 1, id), 2, id+4))
		line := pbVarint(nil, 1, id)
		p = pbBytes(p, 4, pbBytes(pbVarint(nil, 1, id), 4, line))
	}
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	// memmove under taskmgr under main: 30ms, charged to taskmgr.
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(1, 2, 3)), 2, packed(3, 30e6)))
	// crowd under main, unpacked: 10ms.
	p = pbBytes(p, 2, pbVarint(pbVarint(pbVarint(pbVarint(nil, 1, 4), 1, 3), 2, 1), 2, 10e6))
	// main alone: 5ms, the benchmark's own; memmove alone: 5ms, runtime.
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(3)), 2, packed(1, 5e6)))
	p = pbBytes(p, 2, pbBytes(pbBytes(nil, 1, packed(1)), 2, packed(1, 5e6)))
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := readProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := cpuShares(samples)
	want := map[string]float64{"taskmgr": 0.6, "crowd": 0.2, "bench": 0.1, "runtime": 0.1}
	var layers []string
	sum := 0.0
	for l, v := range shares {
		layers = append(layers, l)
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("cpu_share.%s = %v, want %v", l, v, want[l])
		}
	}
	sort.Strings(layers)
	if len(layers) != len(cpuLayers) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares over %v sum to %v", layers, sum)
	}
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded as a profile")
	}
}

func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(field)<<3), v)
}

func pbBytes(b []byte, field int, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func TestPromHistograms(t *testing.T) {
	text := `# HELP qurk_hit_roundtrip_minutes x
# TYPE qurk_hit_roundtrip_minutes histogram
qurk_hit_roundtrip_minutes_bucket{task="a",le="1"} 2
qurk_hit_roundtrip_minutes_sum{task="a"} 3.5
qurk_hit_roundtrip_minutes_count{task="a"} 2
qurk_hit_roundtrip_minutes_sum{task="b"} 1.5
qurk_hit_roundtrip_minutes_count{task="b"} 3
qurk_queries_total 7
`
	h := promHistograms(text)["qurk_hit_roundtrip_minutes"]
	if h.sum != 5 || h.count != 5 {
		t.Fatalf("histogram = %+v, want sum 5 count 5", h)
	}
}
