package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"repro/internal/core"
	datasets "repro/internal/workload"
	"repro/qurk"
)

// workload is one closed-loop SQL workload. run prepares its inputs
// from the run's seed, then drives rounds through runner.rounds.
type workload struct {
	name string
	run  func(r *runner) error
}

// workloads are the benchmark's four workloads, in report order. Each
// loads a different set of layers heavily; README.md and BENCHMARK.json
// say why each exists.
var workloads = []workload{
	{"filter_cascade", runFilterCascade},
	{"point_lookups", runPointLookups},
	{"join_sort", runJoinSort},
	{"tenants", runTenants},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fix the work of a run. Every field is the same on both commits
// of a comparison; the smoke test passes tiny ones.
type sizes struct {
	// filter_cascade: rows per photo table, distinct tables generated
	// per run (query i uses table i mod CascadeTables), minimum queries.
	CascadePhotos, CascadeTables, CascadeQueries int
	// point_lookups: table rows, lookups per round (one reopened engine
	// each), minimum rounds.
	LookupRows, LookupsPerRound, LookupRounds int
	// join_sort: ranked items, celebrities, sightings, input sets
	// generated per run, minimum iterations (one engine and two queries
	// each).
	RankItems, Celebs, Spotted, JoinSortSets, JoinSortIters int
	// tenants: table rows, rows per query's id range, queries per client
	// per round (one engine each), minimum rounds.
	TenantRows, TenantRange, TenantQueries, TenantRounds int
	// ReplayTimes is how often the traced pass times store.Open.
	ReplayTimes int
}

var defaultSizes = sizes{
	CascadePhotos: 500, CascadeTables: 8, CascadeQueries: 1000,
	LookupRows: 2000, LookupsPerRound: 1000, LookupRounds: 10,
	RankItems: 60, Celebs: 20, Spotted: 200, JoinSortSets: 8, JoinSortIters: 500,
	TenantRows: 5000, TenantRange: 23, TenantQueries: 250, TenantRounds: 8,
	ReplayTimes: 5,
}

// Per-query result_f1 floors, below the lowest value measured over tens
// of thousands of queries at seeds 1 to 10 (filter 0.62, top-10 overlap
// 0.7, tenant range 0.46 on ranges with at least tenantFloorTruth cats;
// the join's tail reaches 0.14): an answer this wrong at unchanged spend,
// such as a join that finds no match at all, is a bug, not crowd noise.
const (
	cascadeF1Floor = 0.4
	rankF1Floor    = 0.4
	joinF1Floor    = 0.05
	tenantF1Floor  = 0.2
	// tenantFloorTruth is the fewest true rows a tenant range needs for
	// its floor: missing the one cat of a one-cat range scores 0.
	tenantFloorTruth = 5
	// lookupF1Floor applies to the run's mean: one lookup's F1 is 0 or 1.
	lookupF1Floor = 0.8
)

// subSeed derives the i-th seed of a stream from the run's seed
// (splitmix64), so every input is a pure function of -seed.
func subSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

const filterTasks = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Assignments: 3
  Batch: 5

TASK isOutdoor(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Was this photo taken outdoors? %s", photo
  Response: YesNo
  Assignments: 3
  Batch: 5
`

// truthIDs lists the ids of a photos table for which every named
// boolean task is true, by the dataset's oracle.
func truthIDs(ds qurk.Dataset, tasks ...string) map[int64]bool {
	want := map[int64]bool{}
	for _, row := range ds.Tables[0].Snapshot() {
		ok := true
		for _, t := range tasks {
			ok = ok && ds.Oracle.Truth(t, row.Values[1:2]).Truthy()
		}
		if ok {
			want[row.Values[0].Int()] = true
		}
	}
	return want
}

func ids(rows []qurk.Tuple) []int64 {
	out := make([]int64, len(rows))
	for i, row := range rows {
		out[i] = row.Values[0].Int()
	}
	return out
}

func runFilterCascade(r *runner) error {
	sz := r.opts.sizes
	type input struct {
		ds   qurk.Dataset
		want map[int64]bool
	}
	inputs := make([]input, sz.CascadeTables)
	for i := range inputs {
		ds := qurk.Photos(sz.CascadePhotos, 0.5, 0.5, subSeed(r.opts.seed, 1, i))
		inputs[i] = input{ds, truthIDs(ds, "isCat", "isOutdoor")}
	}
	return r.rounds(sz.CascadeQueries, func(i int) (*qurk.Engine, error) {
		in := inputs[i%len(inputs)]
		eng, err := r.newEngine(qurk.Config{
			Oracle: in.ds.Oracle,
			Crowd:  qurk.CrowdConfig{Seed: subSeed(r.opts.seed, 2, i)},
		}, in.ds.Tables, filterTasks)
		if err != nil {
			return nil, err
		}
		if rows, ok := r.query(eng, `SELECT id, img FROM photos WHERE isCat(img) AND isOutdoor(img)`); ok {
			r.scoreFloor("result_f1_floor", f1(ids(rows), in.want), cascadeF1Floor)
		}
		return eng, nil
	})
}

func runPointLookups(r *runner) error {
	sz := r.opts.sizes
	seed := r.opts.seed
	ds := qurk.Photos(sz.LookupRows, 0.5, 0.5, subSeed(seed, 1, 0))
	cats := truthIDs(ds, "isCat")
	cfg := qurk.Config{Oracle: ds.Oracle, Crowd: qurk.CrowdConfig{Seed: subSeed(seed, 2, 0)}}

	warmed := filepath.Join(r.opts.outDir, "point_lookups.store")
	defer os.RemoveAll(warmed)
	if err := warmStore(cfg, ds.Tables[0], warmed); err != nil {
		return fmt.Errorf("warm store: %w", err)
	}
	if r.lay != nil {
		if err := r.lay.measureReplay(warmed, r.opts.outDir, sz.ReplayTimes); err != nil {
			return err
		}
	}

	defer os.RemoveAll(filepath.Join(r.opts.outDir, "point_lookups.round"))
	var hit, total float64
	err := r.rounds(sz.LookupRounds, func(i int) (*qurk.Engine, error) {
		dir := filepath.Join(r.opts.outDir, "point_lookups.round")
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := copyDir(warmed, dir); err != nil {
			return nil, err
		}
		c := cfg
		c.StorePath = dir
		c.Crowd.Seed = subSeed(seed, 2, i+1)
		eng, err := r.newEngine(c, ds.Tables, filterTasks)
		if err != nil {
			return nil, err
		}
		// Zipf(1.1) ranks, scattered over the table by a fresh permutation
		// each round: where the hottest keys sit decides both the cache
		// hit ratio and the scan time to the first row.
		rng := rand.New(rand.NewSource(subSeed(seed, 3, i)))
		perm := rng.Perm(sz.LookupRows)
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.LookupRows-1))
		for j := 0; j < sz.LookupsPerRound; j++ {
			k := int64(perm[zipf.Uint64()] + 1)
			rows, ok := r.query(eng, `SELECT id, img FROM photos WHERE id = `+strconv.FormatInt(k, 10)+` AND isCat(img)`)
			if !ok {
				continue
			}
			want := map[int64]bool{}
			if cats[k] {
				want[k] = true
			}
			f := f1(ids(rows), want)
			r.score(f)
			hit += f
			total++
		}
		return eng, nil
	})
	r.check("result_f1_floor", total == 0 || hit/total >= lookupF1Floor)
	return err
}

// warmStore leaves in dir the store of an engine that has cached isCat
// for the first half of table: the engine runs one bulk query and
// closes, which flushes its journal.
func warmStore(cfg qurk.Config, table *qurk.Table, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	cfg.StorePath = dir
	eng, err := qurk.New(cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := eng.Register(table); err != nil {
		return err
	}
	if err := eng.Define(filterTasks); err != nil {
		return err
	}
	rows, err := eng.Query(context.Background(), fmt.Sprintf(`SELECT id FROM photos WHERE id <= %d AND isCat(img)`, table.Len()/2))
	if err != nil {
		return err
	}
	defer rows.Close()
	for rows.Next() {
	}
	return rows.Err()
}

const joinSortTasks = `
TASK rateSq(Image img)
RETURNS Int:
  TaskType: Rating
  Text: "Rate this item from 1 to 9. %s", img
  Response: Rating(1, 9)
  Compare: orderSq

TASK orderSq(Image img)
RETURNS Int:
  TaskType: Rank
  Text: "Order these items from worst to best."
  Response: Order
  GroupSize: 5

TASK isCeleb(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a public figure? %s", photo
  Response: YesNo

TASK samePerson(Image[] celebs, Image[] spotted)
RETURNS Bool:
  TaskType: JoinPredicate
  Text: "Match the pictures."
  Response: JoinColumns("Celebrity", celebs, "Spotted Star", spotted)
  PreFilter: isCeleb
`

func runJoinSort(r *runner) error {
	sz := r.opts.sizes
	seed := r.opts.seed
	// Iteration i runs over input set i mod JoinSortSets: one set per
	// run would make every per-query figure a property of that set.
	type input struct {
		oracle qurk.Oracle
		tables []*qurk.Table
		top    []string        // the true top 10 images
		pairs  map[string]bool // the true matching name/id pairs
	}
	inputs := make([]input, sz.JoinSortSets)
	for n := range inputs {
		items := qurk.RankItems(sz.RankItems, 9, "rateSq", subSeed(seed, 1, 2*n))
		celebs := qurk.Celebrities(sz.Celebs, sz.Spotted, 0.1, subSeed(seed, 1, 2*n+1))
		in := input{
			oracle: qurk.CombineOracles(items.Oracle, datasets.OrderOracle(items.Tables[0], "orderSq"), celebs.Oracle),
			tables: append(append([]*qurk.Table(nil), items.Tables...), celebs.Tables...),
			pairs:  map[string]bool{},
		}
		ranked := items.Tables[0].Snapshot()
		sort.Slice(ranked, func(i, j int) bool { return ranked[i].Values[2].Float() > ranked[j].Values[2].Float() })
		for _, row := range ranked[:min(10, len(ranked))] {
			in.top = append(in.top, row.Values[1].Str())
		}
		for _, c := range celebs.Tables[0].Snapshot() {
			for _, s := range celebs.Tables[1].Snapshot() {
				if celebs.Oracle.Truth("samePerson", []qurk.Value{c.Values[1], s.Values[1]}).Truthy() {
					in.pairs[c.Values[0].Str()+"/"+strconv.FormatInt(s.Values[0].Int(), 10)] = true
				}
			}
		}
		inputs[n] = in
	}

	return r.rounds(sz.JoinSortIters, func(i int) (*qurk.Engine, error) {
		in := inputs[i%len(inputs)]
		// A 5×5 join grid asks 25 questions per HIT; the default batch
		// penalty would cut accuracy to its floor and bury the join's
		// answers in false matches.
		eng, err := r.newEngine(qurk.Config{
			Oracle:        in.oracle,
			Crowd:         qurk.CrowdConfig{Seed: subSeed(seed, 2, i), MeanSkill: 0.95, BatchPenalty: 1e-9},
			AdaptiveJoins: true,
		}, in.tables, joinSortTasks)
		if err != nil {
			return nil, err
		}
		if rows, ok := r.query(eng, `SELECT img, truth FROM items ORDER BY rateSq(img) DESC LIMIT 10`); ok {
			got := make([]string, len(rows))
			for j, row := range rows {
				got[j] = row.Values[0].Str()
			}
			r.scoreFloor("result_f1_floor", overlap(got, in.top), rankF1Floor)
		}
		rows, ok := r.query(eng, `SELECT celebrities.name, spottedstars.id FROM celebrities, spottedstars WHERE samePerson(celebrities.image, spottedstars.image)`)
		if ok {
			got := make([]string, len(rows))
			for j, row := range rows {
				got[j] = row.Values[0].Str() + "/" + strconv.FormatInt(row.Values[1].Int(), 10)
			}
			r.scoreFloor("result_f1_floor", f1(got, in.pairs), joinF1Floor)
		}
		return eng, nil
	})
}

const tenantTasks = `
TASK isCat(Image photo)
RETURNS Bool:
  TaskType: Filter
  Text: "Is this a photo of a cat? %s", photo
  Response: YesNo
  Assignments: 5
  MinAssignments: 2
  Batch: 5
`

func runTenants(r *runner) error {
	sz := r.opts.sizes
	seed := r.opts.seed
	ds := qurk.Photos(sz.TenantRows, 0.5, 0.5, subSeed(seed, 1, 0))
	cats := truthIDs(ds, "isCat")
	const clients = 2
	return r.rounds(sz.TenantRounds, func(i int) (*qurk.Engine, error) {
		eng, err := r.newEngine(qurk.Config{
			Oracle:          ds.Oracle,
			Crowd:           qurk.CrowdConfig{Seed: subSeed(seed, 2, i), MeanSkill: 0.9},
			MaxInflightHITs: 32,
			Inference:       &core.InferenceConfig{Method: "em"},
		}, ds.Tables, tenantTasks)
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			rng := rand.New(rand.NewSource(subSeed(seed, 3+c, i)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < sz.TenantQueries; j++ {
					lo := int64(rng.Intn(sz.TenantRows-sz.TenantRange+1) + 1)
					hi := lo + int64(sz.TenantRange)
					want := map[int64]bool{}
					for k := lo; k < hi; k++ {
						if cats[k] {
							want[k] = true
						}
					}
					sql := fmt.Sprintf(`SELECT id, img FROM photos WHERE id >= %d AND id < %d AND isCat(img)`, lo, hi)
					// Even queries co-batch across clients; odd ones post
					// adaptively under EM (shared HITs stay fixed).
					rows, ok := r.query(eng, sql, qurk.WithSharedBatching(j%2 == 0))
					switch {
					case !ok:
					case len(want) >= tenantFloorTruth:
						r.scoreFloor("result_f1_floor", f1(ids(rows), want), tenantF1Floor)
					default:
						r.score(f1(ids(rows), want))
					}
				}
			}()
		}
		wg.Wait()
		return eng, nil
	})
}
