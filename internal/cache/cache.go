// Package cache implements Qurk's Task Cache: a memo of completed
// (task, arguments) → answers entries. The paper: "We cache a given
// result to be used in several places (even possibly in different
// queries)." A hit costs $0 and zero HITs; the dashboard reports the
// savings. Entries persist across processes through the durable
// knowledge store (internal/store), which streams cache records to its
// WAL and replays them at engine start.
package cache

import (
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/relation"
)

// Key identifies a cached task application.
type Key struct {
	Task string
	Args string // canonical encoding of the argument values
}

// NewKey canonicalizes a task invocation.
func NewKey(task string, args []relation.Value) Key {
	var enc []byte
	for _, a := range args {
		enc = a.Encode(enc)
	}
	return Key{Task: task, Args: string(enc)}
}

// Answers is one entry's answer list, every assignment's answer in
// arrival order, held as the exact bytes the knowledge store writes for
// it: a uvarint count, then each answer's relation.Value.Encode bytes
// behind a uvarint length. A finalized list is encoded once, and the
// cache, the journal record and the store's replayed state all share
// that one string; no copy of it is ever held as values. The zero value
// is the empty list, which the store writes as the single count byte 0.
type Answers string

// EncodeAnswers encodes an answer list; an empty list encodes to "".
func EncodeAnswers(vs []relation.Value) Answers {
	if len(vs) == 0 {
		return ""
	}
	var bufStack, encStack [64]byte
	buf := binary.AppendUvarint(bufStack[:0], uint64(len(vs)))
	enc := encStack[:0]
	for _, v := range vs {
		enc = v.Encode(enc[:0])
		buf = binary.AppendUvarint(buf, uint64(len(enc)))
		buf = append(buf, enc...)
	}
	return Answers(buf)
}

// Len returns how many answers the list holds, without decoding them.
func (a Answers) Len() int {
	n, _ := a.count()
	return n
}

// count reads the list's count and the offset of its first answer.
func (a Answers) count() (n, off int) {
	head := a[:min(len(a), binary.MaxVarintLen64)]
	c, w := binary.Uvarint([]byte(head))
	if w <= 0 || c > uint64(len(a)) {
		return 0, 0
	}
	return int(c), w
}

// Values decodes the list into a fresh slice (nil for the empty list),
// which the caller owns. A list built by EncodeAnswers, or validated by
// the store's replay, decodes whole; on a malformed count or length
// prefix Values stops early instead of reading past the string.
func (a Answers) Values() []relation.Value {
	n, off := a.count()
	if n == 0 {
		return nil
	}
	out := make([]relation.Value, 0, n)
	for rest := a[off:]; len(out) < n; {
		l, w := binary.Uvarint([]byte(rest[:min(len(rest), binary.MaxVarintLen64)]))
		if w <= 0 || l > uint64(len(rest)-w) {
			break
		}
		v, trailing, err := relation.DecodeValue([]byte(rest[w : w+int(l)]))
		if err != nil || len(trailing) != 0 {
			break
		}
		out = append(out, v)
		rest = rest[w+int(l):]
	}
	return out
}

// Entry is the cached outcome as values: every assignment's answer, so
// callers can re-reduce with any aggregate.
type Entry struct {
	Answers []relation.Value
}

// Stats summarizes cache effectiveness for the dashboard.
type Stats struct {
	Entries int
	Hits    int64
	Misses  int64
	// SavedQuestions counts answers served from cache instead of being
	// paid for — the basis of the dashboard's "caching benefit". One
	// lookup hit serves the whole stored answer list (every assignment
	// that would otherwise be re-posted), so this is the sum of answer
	// counts over hits, not the hit count.
	SavedQuestions int64
}

// Cache is a concurrency-safe task cache. Entries are kept per task, so
// no entry repeats its task's name.
type Cache struct {
	mu            sync.Mutex
	entries       map[string]map[string]Answers // task → canonical args → answers
	n             int
	hits          int64
	misses        int64
	answersServed int64
}

// New returns an empty cache.
func New() *Cache {
	return &Cache{entries: make(map[string]map[string]Answers)}
}

// Get looks up answers for a task application; ok is false on miss.
// The returned Entry is decoded fresh: mutating it never corrupts the
// cache.
func (c *Cache) Get(key Key) (Entry, bool) {
	c.mu.Lock()
	a, ok := c.entries[key.Task][key.Args]
	if ok {
		c.hits++
		c.answersServed += int64(a.Len())
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return Entry{Answers: a.Values()}, ok
}

// Contains reports whether the key has a non-empty answer set, without
// touching the hit/miss counters or decoding the answers — the cheap
// probe for callers that only need existence (e.g. the executor
// counting a pre-filter stage's uncached work).
func (c *Cache) Contains(key Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[key.Task][key.Args].Len() > 0
}

// Put stores the complete answer set for a task application,
// overwriting any previous entry. The cache keeps a as it is: an
// Answers is an immutable string, so the caller may hand the same list
// to the journal.
func (c *Cache) Put(key Key, a Answers) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byArgs := c.entries[key.Task]
	if byArgs == nil {
		byArgs = make(map[string]Answers)
		c.entries[key.Task] = byArgs
	}
	if _, ok := byArgs[key.Args]; !ok {
		c.n++
	}
	byArgs[key.Args] = a
}

// Len returns the number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Stats returns effectiveness counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.n, Hits: c.hits, Misses: c.misses, SavedQuestions: c.answersServed}
}

// Exported is one entry with its key and decoded answers.
type Exported struct {
	Key     Key
	Answers []relation.Value
}

// Export decodes every entry into fresh slices, sorted by key, so its
// output is deterministic.
func (c *Cache) Export() []Exported {
	type entry struct {
		key Key
		a   Answers
	}
	c.mu.Lock()
	flat := make([]entry, 0, c.n)
	for task, byArgs := range c.entries {
		for args, a := range byArgs {
			flat = append(flat, entry{Key{Task: task, Args: args}, a})
		}
	}
	c.mu.Unlock()
	sort.Slice(flat, func(i, j int) bool {
		if flat[i].key.Task != flat[j].key.Task {
			return flat[i].key.Task < flat[j].key.Task
		}
		return flat[i].key.Args < flat[j].key.Args
	})
	out := make([]Exported, len(flat))
	for i, e := range flat {
		out[i] = Exported{Key: e.key, Answers: e.a.Values()}
	}
	return out
}
