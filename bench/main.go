// Command bench is the engine-path benchmark of this Qurk reproduction.
// It drives only the path users run — qurk.New, Register, Define,
// Engine.Query and Rows — with no clock pacing, over four closed-loop SQL
// workloads that each load a different set of layers. An untraced run
// reports the end-to-end metrics; a traced run (-trace 1) re-runs the
// same inputs with a CPU profile, engine tracing and timed calls into the
// layers, and reports the per-layer metrics.
//
// Run it from the repository root (see bench/README.md):
//
//	bash bench/run.sh --workload filter_cascade --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the machine-readable outcome of one invocation.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed (1 for development, 2 as the holdout)")
	seconds := fs.Int("seconds", 20, "measured seconds per workload pass")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result files and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1\n")
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadNamed(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		sizes:   defaultSizes,
		outDir:  *out,
	}

	env := environment(*seed, *seconds, *trace == 1)
	total := result{Correct: true}
	perWorkload := map[string]result{}
	files := map[string]fileEntry{}
	for _, w := range selected {
		var rep report
		var err error
		if *trace == 1 {
			rep, err = traceWorkload(w, opts)
		} else {
			rep, err = measureWorkload(w, opts)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		for _, m := range rep.metrics {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, formatValue(m.value), m.unit)
		}
		for _, m := range rep.hostTimes {
			fmt.Fprintf(stdout, "# %s %s %s %s\n", w.name, m.name, formatValue(m.value), m.unit)
		}
		for _, n := range rep.notes {
			fmt.Fprintf(stdout, "# %s %s\n", w.name, n)
		}
		for _, f := range rep.failureNames() {
			fmt.Fprintf(stdout, "%s check FAILED %s ×%d\n", w.name, f, rep.failures[f])
		}
		res := rep.result()
		perWorkload[w.name] = res
		files[w.name] = fileEntry{res, values(rep.hostTimes), rep.notes}
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		total.Correct = total.Correct && res.Correct
		total.Metrics = res.Metrics
	}

	file := "results.json"
	if *trace == 1 {
		file = "layers.json"
		printLayers(stdout, selected, perWorkload)
	}
	if err := writeResults(filepath.Join(*out, file), env, files); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(selected) > 1 {
		// The result line of a one-workload run names bare metrics; a
		// multi-workload run keys them by workload instead.
		total.Metrics = map[string]metricValue{}
		for wn, res := range perWorkload {
			for mn, v := range res.Metrics {
				total.Metrics[wn+"/"+mn] = v
			}
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// formatValue prints a metric with all the digits it was measured with.
func formatValue(v float64) string {
	return fmt.Sprintf("%.6g", v)
}

// printLayers prints the LAYERS table: each layer's share of the traced
// pass's CPU, one column per workload.
func printLayers(w io.Writer, selected []workload, runs map[string]result) {
	fmt.Fprintf(w, "LAYERS%-10s", "")
	for _, wl := range selected {
		fmt.Fprintf(w, " %15s", wl.name)
	}
	fmt.Fprintln(w)
	for _, layer := range cpuLayers {
		fmt.Fprintf(w, "  %-14s", layer)
		for _, wl := range selected {
			fmt.Fprintf(w, " %14.1f%%", 100*runs[wl.name].Metrics["cpu_share."+layer].Value)
		}
		fmt.Fprintln(w)
	}
}

// environment is the header written next to every result file, so that
// numbers from different machines or commits are never compared blind.
func environment(seed int64, seconds int, traced bool) map[string]any {
	env := map[string]any{
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"goos_goarch":  runtime.GOOS + "/" + runtime.GOARCH,
		"vcs_revision": "unknown",
		"seed":         seed,
		"seconds":      seconds,
		"traced":       traced,
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["vcs_revision"] = s.Value
			case "vcs.modified":
				env["vcs_modified"] = s.Value == "true"
			}
		}
	}
	return env
}

// fileEntry is one workload's part of the result file: the result line's
// fields, plus the host times and notes of an untraced run.
type fileEntry struct {
	result
	HostTimes map[string]metricValue `json:"host_times,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
}

// writeResults writes the environment header and each workload's entry
// to path.
func writeResults(path string, env map[string]any, runs map[string]fileEntry) error {
	doc := struct {
		Env       map[string]any       `json:"env"`
		Workloads map[string]fileEntry `json:"workloads"`
	}{env, runs}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// failureNames lists the failed checks in a stable order.
func (r report) failureNames() []string {
	var names []string
	for n := range r.failures {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
