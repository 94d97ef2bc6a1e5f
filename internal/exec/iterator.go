package exec

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/qlang"
	"repro/internal/relation"
)

// Iterator is the pull-based operator interface. Local (call-free)
// operators fuse into iterator chains that run in the consumer's
// goroutine; human-powered operators keep a producer goroutine and are
// bridged back into the pull chain through their output queue.
//
// Ownership contract: a tuple returned by Next from a non-Stable
// iterator is valid only until the next Next or Close call on that
// iterator — the producer may reuse its backing value buffer. Consumers
// that retain tuples past one step (sort barriers, join builds, the
// result sink, async operators with outstanding HIT callbacks) must
// clone transient tuples first; ensureStable wraps that rule.
type Iterator interface {
	// Next returns the next tuple; ok is false at end-of-stream.
	Next() (relation.Tuple, bool)
	// Close releases resources and propagates upstream, stopping
	// producers early (e.g. under a satisfied LIMIT). Idempotent.
	Close()
	// Stable reports whether emitted tuples stay valid after the next
	// Next call.
	Stable() bool
}

// bufPool recycles tuple value buffers across operators and queries so
// steady-state allocation tracks pipeline depth, not relation size.
var bufPool = sync.Pool{New: func() interface{} { return new([]relation.Value) }}

func getBuf(n int) *[]relation.Value {
	p := bufPool.Get().(*[]relation.Value)
	if cap(*p) < n {
		*p = make([]relation.Value, n)
	}
	*p = (*p)[:n]
	return p
}

func putBuf(p *[]relation.Value) {
	var zero relation.Value
	for i := range *p {
		(*p)[i] = zero
	}
	bufPool.Put(p)
}

// cloneTuple copies a tuple into a fresh (unpooled) buffer, for
// consumers that retain it indefinitely.
func cloneTuple(t relation.Tuple) relation.Tuple {
	vals := make([]relation.Value, len(t.Values))
	copy(vals, t.Values)
	return relation.Tuple{Schema: t.Schema, Values: vals}
}

// ensureStable wraps a transient iterator so every emitted tuple owns
// its values. Async operators wrap their inputs with it: their HIT
// callbacks hold tuples for arbitrarily long.
func ensureStable(it Iterator) Iterator {
	if it.Stable() {
		return it
	}
	return &stableIter{child: it}
}

type stableIter struct{ child Iterator }

func (s *stableIter) Next() (relation.Tuple, bool) {
	t, ok := s.child.Next()
	if !ok {
		return relation.Tuple{}, false
	}
	return cloneTuple(t), true
}

func (s *stableIter) Close()       { s.child.Close() }
func (s *stableIter) Stable() bool { return true }

// queueIter bridges an async operator's output queue into the pull
// chain. Closing it closes the queue, so the producer's pushes fail
// fast instead of blocking.
type queueIter struct{ op *operator }

func (qi *queueIter) Next() (relation.Tuple, bool) { return qi.op.out.Pop() }
func (qi *queueIter) Close()                       { qi.op.out.Close() }
func (qi *queueIter) Stable() bool                 { return true }

// scanIter streams the rows present when it starts, re-labelling tuples
// with the alias-qualified schema. It reads the table's own rows
// (Table.Rows), which never change once appended, so emitted tuples are
// stable and nothing is copied.
type scanIter struct {
	q       *run
	op      *operator
	v       *plan.Scan
	rows    []relation.Tuple
	started bool
	i       int
}

func (s *scanIter) Next() (relation.Tuple, bool) {
	if !s.started {
		s.started = true
		s.rows = s.v.Table.Rows()
	}
	if s.q.stopped() || s.i >= len(s.rows) {
		s.rows = nil
		s.op.markDone()
		return relation.Tuple{}, false
	}
	row := s.rows[s.i]
	s.i++
	atomic.AddInt64(&s.op.in, 1)
	atomic.AddInt64(&s.op.emit, 1)
	return relation.Tuple{Schema: s.v.Schema(), Values: row.Values}, true
}

func (s *scanIter) Close() {
	s.rows = nil
	s.op.markDone()
}

func (s *scanIter) Stable() bool { return true }

// filterIter evaluates call-free conjuncts inline. A tuple whose
// conjunct errors is reported and dropped, as in the async cascade.
type filterIter struct {
	q         *run
	op        *operator
	child     Iterator
	conjuncts []qlang.Expr
}

func (f *filterIter) Next() (relation.Tuple, bool) {
	for {
		if f.q.stopped() {
			f.op.markDone()
			return relation.Tuple{}, false
		}
		t, ok := f.child.Next()
		if !ok {
			f.op.markDone()
			return relation.Tuple{}, false
		}
		atomic.AddInt64(&f.op.in, 1)
		pass := true
		for _, c := range f.conjuncts {
			val, err := Eval(c, t)
			if err != nil {
				f.q.reportError(err)
				pass = false
				break
			}
			if !val.Truthy() {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		atomic.AddInt64(&f.op.emit, 1)
		return t, true
	}
}

func (f *filterIter) Close() {
	f.child.Close()
	f.op.markDone()
}

func (f *filterIter) Stable() bool { return f.child.Stable() }

// projectIter computes call-free SELECT items into one reused scratch
// buffer; its output is transient.
type projectIter struct {
	q       *run
	op      *operator
	v       *plan.Project
	child   Iterator
	scratch []relation.Value
}

func (p *projectIter) Next() (relation.Tuple, bool) {
	for {
		if p.q.stopped() {
			p.op.markDone()
			return relation.Tuple{}, false
		}
		t, ok := p.child.Next()
		if !ok {
			p.op.markDone()
			return relation.Tuple{}, false
		}
		atomic.AddInt64(&p.op.in, 1)
		vals := p.scratch[:0]
		ok = true
		for _, it := range p.v.Items {
			if _, isStar := it.Expr.(*qlang.Star); isStar {
				vals = append(vals, t.Values...)
				continue
			}
			val, err := Eval(it.Expr, t)
			if err != nil {
				p.q.reportError(err)
				ok = false
				break
			}
			vals = append(vals, val)
		}
		if !ok {
			continue
		}
		p.scratch = vals
		atomic.AddInt64(&p.op.emit, 1)
		return relation.Tuple{Schema: p.v.Schema(), Values: vals}, true
	}
}

func (p *projectIter) Close() {
	p.child.Close()
	p.op.markDone()
}

func (p *projectIter) Stable() bool { return false }

// localJoinIter nested-loops a call-free join: the right side is built
// once (stable copies), the left side streams — the current probe tuple
// stays valid between our Next calls even from a transient child,
// because we only advance the child after its right scan completes.
type localJoinIter struct {
	q           *run
	op          *operator
	v           *plan.Join
	left, right Iterator
	started     bool
	build       []relation.Tuple
	lt          relation.Tuple
	haveLeft    bool
	ri          int
	scratch     []relation.Value
}

func (j *localJoinIter) Next() (relation.Tuple, bool) {
	if !j.started {
		j.started = true
		for {
			t, ok := j.right.Next()
			if !ok {
				break
			}
			atomic.AddInt64(&j.op.in, 1)
			j.build = append(j.build, t)
		}
		j.q.noteResident(int64(len(j.build)))
	}
	for {
		if j.q.stopped() {
			j.op.markDone()
			return relation.Tuple{}, false
		}
		if !j.haveLeft {
			lt, ok := j.left.Next()
			if !ok {
				j.op.markDone()
				return relation.Tuple{}, false
			}
			atomic.AddInt64(&j.op.in, 1)
			j.lt, j.haveLeft, j.ri = lt, true, 0
		}
		for j.ri < len(j.build) {
			rt := j.build[j.ri]
			j.ri++
			vals := j.scratch[:0]
			vals = append(vals, j.lt.Values...)
			vals = append(vals, rt.Values...)
			j.scratch = vals
			joined := relation.Tuple{Schema: j.v.Schema(), Values: vals}
			if j.q.passesAll(j.v.Residual, joined) {
				atomic.AddInt64(&j.op.emit, 1)
				return joined, true
			}
		}
		j.haveLeft = false
	}
}

func (j *localJoinIter) Close() {
	j.left.Close()
	j.right.Close()
	j.build = nil
	j.op.markDone()
}

func (j *localJoinIter) Stable() bool { return false }

// distinctIter streams unique tuples by canonical encoding, reusing one
// encode buffer across tuples.
type distinctIter struct {
	q     *run
	op    *operator
	child Iterator
	seen  map[string]struct{}
	enc   []byte
}

func (d *distinctIter) Next() (relation.Tuple, bool) {
	for {
		if d.q.stopped() {
			d.op.markDone()
			return relation.Tuple{}, false
		}
		t, ok := d.child.Next()
		if !ok {
			d.op.markDone()
			return relation.Tuple{}, false
		}
		atomic.AddInt64(&d.op.in, 1)
		d.enc = d.enc[:0]
		for _, val := range t.Values {
			d.enc = val.Encode(d.enc)
		}
		if _, dup := d.seen[string(d.enc)]; dup {
			continue
		}
		d.seen[string(d.enc)] = struct{}{}
		atomic.AddInt64(&d.op.emit, 1)
		return t, true
	}
}

func (d *distinctIter) Close() {
	d.child.Close()
	d.op.markDone()
}

func (d *distinctIter) Stable() bool { return d.child.Stable() }

// limitIter forwards the first N tuples, then closes its child so
// upstream producers stop early instead of draining to exhaustion.
type limitIter struct {
	q      *run
	op     *operator
	child  Iterator
	n      int
	sent   int
	closed bool
}

func (l *limitIter) Next() (relation.Tuple, bool) {
	if l.sent >= l.n || l.q.stopped() {
		l.Close()
		return relation.Tuple{}, false
	}
	t, ok := l.child.Next()
	if !ok {
		l.Close()
		return relation.Tuple{}, false
	}
	atomic.AddInt64(&l.op.in, 1)
	l.sent++
	atomic.AddInt64(&l.op.emit, 1)
	return t, true
}

func (l *limitIter) Close() {
	if l.closed {
		return
	}
	l.closed = true
	l.child.Close()
	l.op.markDone()
}

func (l *limitIter) Stable() bool { return l.child.Stable() }

// orderByIter is the local sort barrier: it buffers its input at first
// Next — cloning transient tuples into pooled buffers — sorts, and
// releases each pooled buffer as the following row is pulled
// (release-on-emit, generalized from runRank).
type orderByIter struct {
	q       *run
	op      *operator
	v       *plan.OrderBy
	child   Iterator
	started bool
	stable  bool
	rows    []relation.Tuple
	bufs    []*[]relation.Value
	keys    []relation.Value // len(rows) × len(v.Keys), row-major
	idx     []int
	pos     int
	lastBuf *[]relation.Value
}

func (o *orderByIter) Next() (relation.Tuple, bool) {
	if !o.started {
		o.started = true
		o.stable = o.child.Stable()
		o.consume()
	}
	if o.lastBuf != nil {
		putBuf(o.lastBuf)
		o.lastBuf = nil
	}
	if o.q.stopped() || o.pos >= len(o.idx) {
		o.op.markDone()
		return relation.Tuple{}, false
	}
	i := o.idx[o.pos]
	o.pos++
	t := o.rows[i]
	o.rows[i] = relation.Tuple{}
	if !o.stable {
		o.lastBuf = o.bufs[i]
		o.bufs[i] = nil
	}
	atomic.AddInt64(&o.op.emit, 1)
	return t, true
}

func (o *orderByIter) consume() {
	nk := len(o.v.Keys)
	for {
		t, ok := o.child.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&o.op.in, 1)
		if !o.stable {
			buf := getBuf(len(t.Values))
			copy(*buf, t.Values)
			o.bufs = append(o.bufs, buf)
			t = relation.Tuple{Schema: t.Schema, Values: *buf}
		}
		o.rows = append(o.rows, t)
		for _, k := range o.v.Keys {
			val, err := Eval(k.Expr, t)
			if err != nil {
				o.q.reportError(err)
				val = relation.Null
			}
			o.keys = append(o.keys, val)
		}
	}
	o.q.noteResident(int64(len(o.rows)))
	o.idx = make([]int, len(o.rows))
	for i := range o.idx {
		o.idx[i] = i
	}
	sort.SliceStable(o.idx, func(a, b int) bool {
		ka, kb := o.keys[o.idx[a]*nk:], o.keys[o.idx[b]*nk:]
		for j := range o.v.Keys {
			c := ka[j].Compare(kb[j])
			if o.v.Keys[j].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

func (o *orderByIter) Close() {
	if o.lastBuf != nil {
		putBuf(o.lastBuf)
		o.lastBuf = nil
	}
	for i, b := range o.bufs {
		if b != nil {
			putBuf(b)
			o.bufs[i] = nil
		}
	}
	o.rows = nil
	o.child.Close()
	o.op.markDone()
}

func (o *orderByIter) Stable() bool { return o.stable }

// aggregateIter is the local grouping barrier: it consumes its input at
// first Next, groups, and emits freshly built (stable) result tuples in
// sorted key order, mirroring runAggregate.
type aggregateIter struct {
	q       *run
	op      *operator
	v       *plan.Aggregate
	child   Iterator
	started bool
	out     []relation.Tuple
	pos     int
}

func (a *aggregateIter) Next() (relation.Tuple, bool) {
	if !a.started {
		a.started = true
		a.consume()
	}
	if a.q.stopped() || a.pos >= len(a.out) {
		a.op.markDone()
		return relation.Tuple{}, false
	}
	t := a.out[a.pos]
	a.out[a.pos] = relation.Tuple{}
	a.pos++
	atomic.AddInt64(&a.op.emit, 1)
	return t, true
}

func (a *aggregateIter) consume() {
	type group struct {
		first relation.Tuple
		count int64
		sums  map[int]float64
		mins  map[int]relation.Value
		maxs  map[int]relation.Value
	}
	groups := make(map[string]*group)
	var order []string
	childStable := a.child.Stable()
	var keyEnc []byte
	n := int64(0)
	for {
		t, ok := a.child.Next()
		if !ok {
			break
		}
		atomic.AddInt64(&a.op.in, 1)
		n++
		keyEnc = keyEnc[:0]
		evalOK := true
		for _, k := range a.v.Keys {
			kv, err := Eval(k, t)
			if err != nil {
				a.q.reportError(err)
				evalOK = false
				break
			}
			keyEnc = kv.Encode(keyEnc)
		}
		if !evalOK {
			continue
		}
		g, ok := groups[string(keyEnc)]
		if !ok {
			first := t
			if !childStable {
				first = cloneTuple(t)
			}
			g = &group{first: first,
				sums: map[int]float64{}, mins: map[int]relation.Value{}, maxs: map[int]relation.Value{}}
			groups[string(keyEnc)] = g
			order = append(order, string(keyEnc))
		}
		g.count++
		for i, it := range a.v.Items {
			call, isAgg := aggCall(it.Expr)
			if !isAgg || len(call.Args) == 0 {
				continue
			}
			val, err := Eval(call.Args[0], t)
			if err != nil {
				a.q.reportError(err)
				continue
			}
			g.sums[i] += val.Float()
			if cur, ok := g.mins[i]; !ok || val.Compare(cur) < 0 {
				g.mins[i] = val
			}
			if cur, ok := g.maxs[i]; !ok || val.Compare(cur) > 0 {
				g.maxs[i] = val
			}
		}
	}
	a.q.noteResident(n)
	sort.Strings(order)
	for _, key := range order {
		g := groups[key]
		vals := make([]relation.Value, 0, len(a.v.Items))
		for i, it := range a.v.Items {
			if call, isAgg := aggCall(it.Expr); isAgg {
				switch strings.ToLower(call.Name) {
				case "count":
					vals = append(vals, relation.NewInt(g.count))
				case "sum":
					vals = append(vals, relation.NewFloat(g.sums[i]))
				case "avg":
					vals = append(vals, relation.NewFloat(g.sums[i]/float64(g.count)))
				case "min":
					vals = append(vals, g.mins[i])
				case "max":
					vals = append(vals, g.maxs[i])
				}
				continue
			}
			val, err := Eval(it.Expr, g.first)
			if err != nil {
				a.q.reportError(err)
				val = relation.Null
			}
			vals = append(vals, val)
		}
		a.out = append(a.out, relation.Tuple{Schema: a.v.Schema(), Values: vals})
	}
}

func (a *aggregateIter) Close() {
	a.out = nil
	a.child.Close()
	a.op.markDone()
}

func (a *aggregateIter) Stable() bool { return true }
