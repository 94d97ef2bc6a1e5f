package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"iter"
	"math"
	"sort"

	"repro/internal/cache"
	"repro/internal/model"
	"repro/internal/relation"
	"repro/internal/stats"
)

// Kind identifies what a record means. The store is modular in its
// record kinds: every learning layer appends its own kind and the store
// needs no knowledge of the layers beyond this enum.
type Kind byte

const (
	// KindCacheEntry is one complete Task Cache entry: Task + Args (the
	// cache key) and the per-assignment Answers. Latest entry for a key
	// wins, matching cache.Put's overwrite semantics.
	KindCacheEntry Kind = 1
	// KindSelectivity is one boolean outcome observed by the Statistics
	// Manager: Task, the join Side it was observed on ("" when untagged),
	// and Pass.
	KindSelectivity Kind = 2
	// KindLatency is one HIT post-to-done latency observation in virtual
	// minutes (X).
	KindLatency Kind = 3
	// KindAgreement is one majority-agreement share observation (X).
	KindAgreement Kind = 4
	// KindModelExample is one labelled Task Model training example:
	// Task, Args (canonical argument encoding) and the Pass label.
	// Persisting examples instead of weights keeps the store independent
	// of any one learner's internals; replay retrains whatever model is
	// attached.
	KindModelExample Kind = 5
	// KindReputation is one worker vote: Worker and whether it agreed
	// with the majority (Pass).
	KindReputation Kind = 6

	// Aggregate kinds appear in snapshots, folding many observations of
	// the same key into one record so compaction keeps files small.

	// KindSelectivitySum is a (Task, Side) estimator's counts: X passes
	// over Y trials.
	KindSelectivitySum Kind = 7
	// KindLatencySum is a task's latency EWMA state: value X over N
	// observations.
	KindLatencySum Kind = 8
	// KindAgreementSum is a task's agreement EWMA state: value X over N
	// observations.
	KindAgreementSum Kind = 9
	// KindReputationSum is a worker's totals: N votes, M agreed.
	KindReputationSum Kind = 10

	// KindRankPair is one finalized comparison (Order) HIT's pairwise
	// agreement: Task, X = mean majority share across its item pairs
	// (1 − X is the inversion rate), N = pairs observed. Replay seeds
	// ChooseRankStrategy's hybrid window model with real evidence.
	KindRankPair Kind = 11
	// KindRankPairSum is a task's comparison-agreement EWMA state in
	// snapshots: value X over N observations.
	KindRankPairSum Kind = 12

	// KindBackendObs is one finalized HIT observed on a worker backend:
	// Task is the backend name, Side the task kind, X the latency in
	// virtual minutes, Y the mean majority-agreement quality, M the
	// per-assignment price in cents. Replay seeds ChooseBackend with
	// real evidence of what each backend charges and delivers.
	KindBackendObs Kind = 13
	// KindBackendSum is a (backend, task kind) cell's EWMA states in
	// snapshots: latency value X, quality value Y, price value M
	// (rounded cents), over N observations.
	KindBackendSum Kind = 14

	// KindWorkerQuality is one EM-fitted per-worker accuracy estimate
	// from a finalized adaptive HIT: Worker, X the fitted accuracy,
	// N the votes that supported the fit. Replay seeds the answer
	// aggregator's worker priors with real evidence.
	KindWorkerQuality Kind = 15
	// KindWorkerQualitySum is a worker's quality EWMA state in
	// snapshots: value X over N observations.
	KindWorkerQualitySum Kind = 16
)

// Record is the store's unit of appending and replay: a tagged union
// whose populated fields depend on Kind (see the Kind constants). One
// flat struct keeps the wire codec trivial and the fuzz surface small.
type Record struct {
	Kind   Kind
	Task   string
	Side   string // join side for selectivity kinds: "", "left", "right"
	Worker string
	// Args is the canonical relation encoding of the argument values
	// (cache key / model example input), exactly cache.Key.Args.
	Args string
	// Answers is a cache entry's answer list in the form the WAL holds
	// it, so encode writes it verbatim and replay keeps the validated
	// bytes; the cache and the replayed state share the same string.
	// Every other kind leaves it empty.
	Answers cache.Answers
	Pass    bool
	X, Y    float64
	N, M    int64
}

// maxRecordBytes bounds one record's encoded payload; anything larger
// during replay is treated as corruption.
const maxRecordBytes = 16 << 20

// encode appends the record's payload (kind byte first) to dst.
func (r Record) encode(dst []byte) []byte {
	dst = append(dst, byte(r.Kind))
	dst = appendStr(dst, r.Task)
	dst = appendStr(dst, r.Side)
	dst = appendStr(dst, r.Worker)
	dst = appendStr(dst, r.Args)
	if r.Answers == "" {
		dst = append(dst, 0) // the empty list: a zero count
	} else {
		dst = append(dst, r.Answers...)
	}
	if r.Pass {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.X))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Y))
	dst = binary.AppendVarint(dst, r.N)
	dst = binary.AppendVarint(dst, r.M)
	return dst
}

// decodeRecord parses one payload produced by encode. Every length is
// validated against the remaining input so corrupted payloads fail
// instead of allocating absurd amounts, and every answer must decode
// as one whole value. Task, Side and Worker come from in, so a replay
// holds one copy of each distinct name; Args and the answer list are
// copied out of data, which the caller may reuse, each as one string.
func decodeRecord(data []byte, in interner) (Record, error) {
	var r Record
	if len(data) == 0 {
		return r, fmt.Errorf("store: empty record")
	}
	r.Kind = Kind(data[0])
	if r.Kind < KindCacheEntry || r.Kind > KindWorkerQualitySum {
		return r, fmt.Errorf("store: unknown record kind %d", data[0])
	}
	rest := data[1:]
	var b []byte
	var err error
	if b, rest, err = takeBytes(rest); err != nil {
		return r, err
	}
	r.Task = in.intern(b)
	if b, rest, err = takeBytes(rest); err != nil {
		return r, err
	}
	r.Side = in.intern(b)
	if b, rest, err = takeBytes(rest); err != nil {
		return r, err
	}
	r.Worker = in.intern(b)
	if b, rest, err = takeBytes(rest); err != nil {
		return r, err
	}
	r.Args = string(b)
	// Each answer takes at least two bytes (length and kind), which
	// bounds a corrupt count by the input size.
	list := rest
	n, used := binary.Uvarint(rest)
	if used <= 0 || n > uint64(len(rest)/2) {
		return r, fmt.Errorf("store: bad answer count")
	}
	rest = rest[used:]
	for i := uint64(0); i < n; i++ {
		if b, rest, err = takeBytes(rest); err != nil {
			return r, err
		}
		if _, trailing, derr := relation.DecodeValue(b); derr != nil || len(trailing) != 0 {
			return r, fmt.Errorf("store: bad answer encoding: %v", derr)
		}
	}
	if n > 0 {
		r.Answers = cache.Answers(list[:len(list)-len(rest)])
	}
	if len(rest) < 1+8+8 {
		return r, fmt.Errorf("store: truncated record tail")
	}
	r.Pass = rest[0] == 1
	r.X = math.Float64frombits(binary.LittleEndian.Uint64(rest[1:9]))
	r.Y = math.Float64frombits(binary.LittleEndian.Uint64(rest[9:17]))
	rest = rest[17:]
	var used2 int
	if r.N, used2 = binary.Varint(rest); used2 <= 0 {
		return r, fmt.Errorf("store: bad varint")
	}
	rest = rest[used2:]
	if r.M, used2 = binary.Varint(rest); used2 <= 0 {
		return r, fmt.Errorf("store: bad varint")
	}
	return r, nil
}

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// takeBytes splits one length-prefixed field off data, without copying.
func takeBytes(data []byte) ([]byte, []byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > uint64(len(data)-used) {
		return nil, nil, fmt.Errorf("store: bad string length")
	}
	end := used + int(n)
	return data[used:end], data[end:], nil
}

// interner hands out one string per distinct byte sequence: replay uses
// it for the task, side and worker names that thousands of records
// repeat.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// DecodeArgs splits a canonical argument encoding (cache.Key.Args /
// Record.Args) back into its values.
func DecodeArgs(args string) ([]relation.Value, error) {
	var out []relation.Value
	rest := []byte(args)
	for len(rest) > 0 {
		v, r, err := relation.DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		rest = r
	}
	return out, nil
}

// --- materialized state ---------------------------------------------------

// RepCounts is one worker's reputation totals.
type RepCounts struct {
	Votes, Agreed int64
}

// modelExampleCap bounds the training examples kept per task: enough to
// warm any attached model while keeping snapshots and memory bounded.
// When exceeded, only the most recent cap examples survive compaction.
const modelExampleCap = 10000

// State is the store's materialized view of everything it has seen:
// replay folds records into it at Open, the writer folds appended
// records into it live, and compaction serializes it back out as the
// snapshot. Access is synchronized by the owning Store (see Store.View).
type State struct {
	cacheOrder []cache.Key
	cache      map[cache.Key]cache.Answers
	sel        map[string]map[string]stats.SelectivityState // task → side
	lat        map[string]*stats.EWMA
	agr        map[string]*stats.EWMA
	rank       map[string]*stats.EWMA
	backends   map[string]map[string]*backendAgg // backend → task kind
	examples   map[string][]model.Example
	reput      map[string]RepCounts
	quality    map[string]*stats.EWMA
	records    int64
}

// backendAgg folds one (backend, task kind) cell's observations; its
// three EWMAs are always observed together, so their counts match.
type backendAgg struct {
	lat, qual, price *stats.EWMA
}

func newBackendAgg() *backendAgg {
	return &backendAgg{
		lat:   stats.NewEWMA(stats.TaskEWMAAlpha),
		qual:  stats.NewEWMA(stats.TaskEWMAAlpha),
		price: stats.NewEWMA(stats.TaskEWMAAlpha),
	}
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		cache:    make(map[cache.Key]cache.Answers),
		sel:      make(map[string]map[string]stats.SelectivityState),
		lat:      make(map[string]*stats.EWMA),
		agr:      make(map[string]*stats.EWMA),
		rank:     make(map[string]*stats.EWMA),
		backends: make(map[string]map[string]*backendAgg),
		examples: make(map[string][]model.Example),
		reput:    make(map[string]RepCounts),
		quality:  make(map[string]*stats.EWMA),
	}
}

// apply folds one decoded record into the state. It never fails: any
// record that survived frame CRC + decode is applicable.
func (s *State) apply(r Record) {
	s.records++
	switch r.Kind {
	case KindCacheEntry:
		key := cache.Key{Task: r.Task, Args: r.Args}
		if _, ok := s.cache[key]; !ok {
			s.cacheOrder = append(s.cacheOrder, key)
		}
		s.cache[key] = r.Answers
	case KindSelectivity:
		c := s.selCounts(r.Task, r.Side)
		c.Trials++
		if r.Pass {
			c.Passes++
		}
		s.sel[r.Task][r.Side] = *c
	case KindSelectivitySum:
		c := s.selCounts(r.Task, r.Side)
		c.Passes += r.X
		c.Trials += r.Y
		s.sel[r.Task][r.Side] = *c
	case KindLatency:
		s.ewma(s.lat, r.Task).Observe(r.X)
	case KindLatencySum:
		s.ewma(s.lat, r.Task).SetState(stats.EWMAState{Value: r.X, N: int(r.N)})
	case KindAgreement:
		s.ewma(s.agr, r.Task).Observe(r.X)
	case KindAgreementSum:
		s.ewma(s.agr, r.Task).SetState(stats.EWMAState{Value: r.X, N: int(r.N)})
	case KindRankPair:
		s.ewma(s.rank, r.Task).Observe(r.X)
	case KindRankPairSum:
		s.ewma(s.rank, r.Task).SetState(stats.EWMAState{Value: r.X, N: int(r.N)})
	case KindBackendObs:
		a := s.backendAgg(r.Task, r.Side)
		a.lat.Observe(r.X)
		a.qual.Observe(r.Y)
		a.price.Observe(float64(r.M))
	case KindBackendSum:
		a := s.backendAgg(r.Task, r.Side)
		a.lat.SetState(stats.EWMAState{Value: r.X, N: int(r.N)})
		a.qual.SetState(stats.EWMAState{Value: r.Y, N: int(r.N)})
		a.price.SetState(stats.EWMAState{Value: float64(r.M), N: int(r.N)})
	case KindModelExample:
		args, err := DecodeArgs(r.Args)
		if err != nil {
			return
		}
		exs := append(s.examples[r.Task], model.Example{Args: args, Label: r.Pass})
		if len(exs) > 2*modelExampleCap {
			exs = append(exs[:0], exs[len(exs)-modelExampleCap:]...)
		}
		s.examples[r.Task] = exs
	case KindReputation:
		c := s.reput[r.Worker]
		c.Votes++
		if r.Pass {
			c.Agreed++
		}
		s.reput[r.Worker] = c
	case KindReputationSum:
		c := s.reput[r.Worker]
		c.Votes += r.N
		c.Agreed += r.M
		s.reput[r.Worker] = c
	case KindWorkerQuality:
		s.ewma(s.quality, r.Worker).Observe(r.X)
	case KindWorkerQualitySum:
		s.ewma(s.quality, r.Worker).SetState(stats.EWMAState{Value: r.X, N: int(r.N)})
	}
}

func (s *State) selCounts(task, side string) *stats.SelectivityState {
	m := s.sel[task]
	if m == nil {
		m = make(map[string]stats.SelectivityState)
		s.sel[task] = m
	}
	c := m[side]
	return &c
}

func (s *State) backendAgg(backend, kind string) *backendAgg {
	kinds := s.backends[backend]
	if kinds == nil {
		kinds = make(map[string]*backendAgg)
		s.backends[backend] = kinds
	}
	a := kinds[kind]
	if a == nil {
		a = newBackendAgg()
		kinds[kind] = a
	}
	return a
}

func (s *State) ewma(m map[string]*stats.EWMA, task string) *stats.EWMA {
	e := m[task]
	if e == nil {
		e = stats.NewEWMA(stats.TaskEWMAAlpha)
		m[task] = e
	}
	return e
}

// snapshotRecords serializes the state as aggregate records in a
// deterministic order (cache insertion order, then sorted tasks and
// workers), so two identical states produce byte-identical snapshots.
func (s *State) snapshotRecords() []Record {
	var out []Record
	for _, key := range s.cacheOrder {
		out = append(out, Record{Kind: KindCacheEntry, Task: key.Task, Args: key.Args, Answers: s.cache[key]})
	}
	for _, task := range sortedKeys(s.sel) {
		sides := s.sel[task]
		for _, side := range sortedKeys(sides) {
			c := sides[side]
			out = append(out, Record{Kind: KindSelectivitySum, Task: task, Side: side, X: c.Passes, Y: c.Trials})
		}
	}
	for _, task := range sortedKeys(s.lat) {
		st := s.lat[task].State()
		out = append(out, Record{Kind: KindLatencySum, Task: task, X: st.Value, N: int64(st.N)})
	}
	for _, task := range sortedKeys(s.agr) {
		st := s.agr[task].State()
		out = append(out, Record{Kind: KindAgreementSum, Task: task, X: st.Value, N: int64(st.N)})
	}
	for _, task := range sortedKeys(s.rank) {
		st := s.rank[task].State()
		out = append(out, Record{Kind: KindRankPairSum, Task: task, X: st.Value, N: int64(st.N)})
	}
	for _, be := range sortedKeys(s.backends) {
		kinds := s.backends[be]
		for _, kind := range sortedKeys(kinds) {
			a := kinds[kind]
			lat, qual, price := a.lat.State(), a.qual.State(), a.price.State()
			out = append(out, Record{
				Kind: KindBackendSum, Task: be, Side: kind,
				X: lat.Value, Y: qual.Value, M: int64(math.Round(price.Value)), N: int64(lat.N),
			})
		}
	}
	for _, task := range sortedKeys(s.examples) {
		exs := s.examples[task]
		if len(exs) > modelExampleCap {
			exs = exs[len(exs)-modelExampleCap:]
		}
		for _, ex := range exs {
			var enc []byte
			for _, a := range ex.Args {
				enc = a.Encode(enc)
			}
			out = append(out, Record{Kind: KindModelExample, Task: task, Args: string(enc), Pass: ex.Label})
		}
	}
	for _, w := range sortedKeys(s.reput) {
		c := s.reput[w]
		out = append(out, Record{Kind: KindReputationSum, Worker: w, N: c.Votes, M: c.Agreed})
	}
	for _, w := range sortedKeys(s.quality) {
		st := s.quality[w].State()
		out = append(out, Record{Kind: KindWorkerQualitySum, Worker: w, X: st.Value, N: int64(st.N)})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CacheEntries yields the replayed cache contents in first-seen order,
// in place: each entry's answers are the string the state holds, so
// installing them in a cache copies nothing. The state must not change
// while the sequence is walked.
func (s *State) CacheEntries() iter.Seq2[cache.Key, cache.Answers] {
	return func(yield func(cache.Key, cache.Answers) bool) {
		for _, key := range s.cacheOrder {
			if !yield(key, s.cache[key]) {
				return
			}
		}
	}
}

// StatTasks returns every task with replayed statistics, sorted.
func (s *State) StatTasks() []string {
	set := make(map[string]bool)
	for t := range s.sel {
		set[t] = true
	}
	for t := range s.lat {
		set[t] = true
	}
	for t := range s.agr {
		set[t] = true
	}
	for t := range s.rank {
		set[t] = true
	}
	return sortedKeys(set)
}

// Selectivities returns one task's per-side estimator counts ("" is the
// untagged side). The returned map is a copy.
func (s *State) Selectivities(task string) map[string]stats.SelectivityState {
	out := make(map[string]stats.SelectivityState, len(s.sel[task]))
	for side, c := range s.sel[task] {
		out[side] = c
	}
	return out
}

// Latency returns one task's replayed latency EWMA state.
func (s *State) Latency(task string) stats.EWMAState {
	if e := s.lat[task]; e != nil {
		return e.State()
	}
	return stats.EWMAState{}
}

// Agreement returns one task's replayed agreement EWMA state.
func (s *State) Agreement(task string) stats.EWMAState {
	if e := s.agr[task]; e != nil {
		return e.State()
	}
	return stats.EWMAState{}
}

// RankAgreement returns one task's replayed comparison-agreement EWMA
// state (pairwise majority share across its Order HITs).
func (s *State) RankAgreement(task string) stats.EWMAState {
	if e := s.rank[task]; e != nil {
		return e.State()
	}
	return stats.EWMAState{}
}

// BackendObservations returns the replayed per-(backend, task kind)
// price/latency/quality states, keyed backend → kind.
func (s *State) BackendObservations() map[string]map[string]stats.BackendObsState {
	out := make(map[string]map[string]stats.BackendObsState, len(s.backends))
	for be, kinds := range s.backends {
		m := make(map[string]stats.BackendObsState, len(kinds))
		for kind, a := range kinds {
			m[kind] = stats.BackendObsState{
				Price:   a.price.State(),
				Latency: a.lat.State(),
				Quality: a.qual.State(),
			}
		}
		out[be] = m
	}
	return out
}

// ModelExamples returns the replayed training examples per task.
func (s *State) ModelExamples() map[string][]model.Example {
	out := make(map[string][]model.Example, len(s.examples))
	for task, exs := range s.examples {
		out[task] = append([]model.Example(nil), exs...)
	}
	return out
}

// Reputations returns the replayed per-worker vote totals.
func (s *State) Reputations() map[string]RepCounts {
	out := make(map[string]RepCounts, len(s.reput))
	for w, c := range s.reput {
		out[w] = c
	}
	return out
}

// WorkerQualityStates returns the replayed per-worker EM-quality EWMA
// states.
func (s *State) WorkerQualityStates() map[string]stats.EWMAState {
	out := make(map[string]stats.EWMAState, len(s.quality))
	for w, e := range s.quality {
		out[w] = e.State()
	}
	return out
}

// Records returns how many records have been folded into the state.
func (s *State) Records() int64 { return s.records }

// Fingerprint hashes the entire state in deterministic order; replaying
// the same bytes must always yield the same fingerprint (the fuzz
// target's no-double-apply check).
func (s *State) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, rec := range s.snapshotRecords() {
		_, _ = h.Write(rec.encode(nil))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}
