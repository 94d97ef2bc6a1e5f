// Command qurk-bench regenerates every experiment table from
// EXPERIMENTS.md (the paper's evaluation artifacts) and prints them.
//
//	qurk-bench                  # all experiments, default scale
//	qurk-bench -only E3 -seed 7 # one experiment, custom seed
//	qurk-bench -scale 3         # 3× larger workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "crowd and workload random seed")
	only := flag.String("only", "", "run a single experiment (E1..E11)")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	flag.Parse()
	if *scale < 1 {
		*scale = 1
	}
	s := *scale

	runners := []struct {
		id  string
		run func() experiments.Table
	}{
		{"E1", func() experiments.Table { return experiments.E1Pipeline(*seed) }},
		{"E2", func() experiments.Table { return experiments.E2Cache(8*s, *seed) }},
		{"E3", func() experiments.Table { return experiments.E3JoinInterfaces(8*s, 16*s, *seed) }},
		{"E4", func() experiments.Table { return experiments.E4TaskModel(4, 30*s, *seed) }},
		{"E5", func() experiments.Table { return experiments.E5PreFilter(6*s, 14*s, *seed) }},
		{"E6", func() experiments.Table { return experiments.E6Redundancy(40*s, *seed) }},
		{"E7", func() experiments.Table { return experiments.E7Adaptive(40*s, *seed) }},
		{"E8", func() experiments.Table { return experiments.E8Batching(40*s, *seed) }},
		{"E9", func() experiments.Table { return experiments.E9Sort(12*s, *seed) }},
		{"E10", func() experiments.Table { return experiments.E10Async(16*s, *seed) }},
		{"E11", func() experiments.Table { return experiments.E11SpamDefense(40*s, *seed) }},
	}

	matched := false
	for _, r := range runners {
		if *only != "" && !strings.EqualFold(*only, r.id) {
			continue
		}
		matched = true
		fmt.Println(r.run().String())
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "qurk-bench: unknown experiment %q (want E1..E11)\n", *only)
		os.Exit(2)
	}
}
