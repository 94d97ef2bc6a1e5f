package main

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark was built on is shared: in back-to-back runs
// of the same code the engine's wall and CPU time varied by up to 1.7×,
// with no CPU steal to show for it. So the runner times a fixed reference
// kernel between rounds, while no engine is running, and reports host
// times at the speed of a host where that kernel's median takes
// refNominal. The raw values are printed next to the scaled ones.
//
// The kernel imitates an engine's set-up with the standard library alone
// (seeded worker records, a tokenized task text, fresh maps), so it slows
// with the host as set-up does, and no change to the engine changes it.
// Its allocations are measured and taken out of the memory metrics.

// refNominal is the kernel's median on a calm 2-CPU host.
const refNominal = 50 * time.Microsecond

const (
	// refEvery is the least time between two kernel timings.
	refEvery = 100 * time.Millisecond
	// refRuns is how often one timing runs the kernel.
	refRuns = 5
)

const refText = `TASK isCat(Image photo) RETURNS Bool: TaskType: Filter Text: "Is this a photo of a cat? %s", photo Response: YesNo Assignments: 3 Batch: 5`

type refWorker struct {
	id           string
	skill, speed float64
	spam         bool
	seen         map[string]int
}

// refSink keeps the compiler from dropping the kernel's work.
var refSink int

// refKernel times one imitation of an engine's set-up.
func refKernel() time.Duration {
	t := time.Now()
	rng := rand.New(rand.NewSource(1))
	workers := make([]*refWorker, 100)
	for i := range workers {
		workers[i] = &refWorker{id: "w" + strconv.Itoa(i), skill: rng.NormFloat64(),
			speed: rng.Float64(), spam: rng.Float64() < 0.05, seen: map[string]int{}}
	}
	tasks := map[string][]string{}
	for i := 0; i < 8; i++ {
		tasks["t"+strconv.Itoa(i)] = strings.Fields(refText)
	}
	keys := make(map[string]int)
	for i := 0; i < 256; i++ {
		keys["ref-"+strconv.Itoa(i*7919)] = i
	}
	refSink += len(workers) + len(tasks) + len(keys)
	return time.Since(t)
}

// hostClock collects the kernel's timings over a pass, and what they
// allocated.
type hostClock struct {
	last               time.Time
	samples            []float64 // seconds
	allocBytes, allocs uint64
	before, after      runtime.MemStats
}

// tick times the kernel refRuns times if refEvery has passed since the
// last timing. Callers run no engine meanwhile, so the MemStats delta is
// the kernel's own.
func (h *hostClock) tick() {
	if time.Since(h.last) < refEvery {
		return
	}
	runtime.ReadMemStats(&h.before)
	for i := 0; i < refRuns; i++ {
		h.samples = append(h.samples, refKernel().Seconds())
	}
	runtime.ReadMemStats(&h.after)
	h.allocBytes += h.after.TotalAlloc - h.before.TotalAlloc
	h.allocs += h.after.Mallocs - h.before.Mallocs
	h.last = time.Now()
}

// slowdown is how much slower than nominal the host ran the kernel: a
// host time divided by it is the time at nominal speed.
func (h *hostClock) slowdown() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return median(h.samples) / refNominal.Seconds()
}
