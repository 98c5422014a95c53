package main

import (
	"sync/atomic"
	"time"

	"tboost"
	"tboost/internal/stm"
)

// Tracing is done entirely from outside the program: the traced pass swaps
// in wrappers around the interfaces the layers already accept — the BaseMap
// under a boosted map, the System's DurabilitySink and ContentionPolicy, the
// transaction body, the boosted objects' own methods — and each wrapper
// records a span at its layer boundary. Every span feeds the per-layer sums
// and counts; one call in sampleEvery also keeps its spans in the lane's ring.

var epoch = time.Now()

// now is nanoseconds since process start (monotonic).
func now() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spTx         spanKind = iota // one Atomic call, entry to return
	spBegin                      // Atomic entry to first body entry
	spBody                       // one attempt's body
	spOp                         // one boosted method call (point op)
	spRangeOp                    // KeysRange / CountRange
	spBase                       // one base-object call inside a boosted call
	spLockWait                   // first OnConflict to OnWaitEnd
	spCommit                     // committed call: last body exit to return
	spRollback                   // declined call: body exit to return
	spRetry                      // aborted attempt: body exit to next body entry
	spWalAppend                  // sink Commit: encode + enqueue
	spWalWait                    // durability barrier: queue + fsync
	spWalPrepare                 // sink Prepare: force-logged vote
	spWalDecide                  // sink Decide: marker append
	spROTx                       // one read-only call
	spSpan                       // one Coordinator.Span call
	spBranchBody                 // committing attempt of one branch body
	spSlowBranch                 // per span, the slower of its two branch bodies
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"stm.tx", "stm.begin", "body", "core.op", "core.range_op", "base.op",
	"lockmgr.wait", "stm.commit", "stm.rollback", "stm.retry", "wal.append",
	"wal.wait", "wal.prepare", "wal.decide", "stm.ro_tx", "txncoord.span",
	"txncoord.branch_body", "txncoord.slow_branch",
}

const (
	sampleEvery = 64
	ringCap     = 4096
)

// acc is one layer's time and count. Atomic because a span's branches run on
// the coordinator's goroutines, not the client's.
type acc struct{ ns, n atomic.Int64 }

func (a *acc) add(d int64) { a.ns.Add(d); a.n.Add(1) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one ring entry. Parent is the ID of the span that caused it, -1
// for a root; the spans of one call share Tx.
type span struct {
	ID, Parent int64
	Kind       spanKind
	Tx         uint64
	Start, End int64
}

// lane is one execution context of one client: the client's own goroutine
// (lane 0) or the goroutine running its second span branch (lane 1). All its
// non-atomic fields are touched by one goroutine at a time.
type lane struct {
	tr  *tracer
	id  int
	sum [numSpanKinds]acc

	// How wrappers that are not handed the client find this lane: the body
	// wrapper publishes the attempt's transaction ID (sinks and the
	// contention policy receive it), and each boosted map call publishes the
	// key it is about to touch (the base map receives it; the abstract lock
	// on that key keeps the match unambiguous among writers).
	txid   atomic.Uint64
	curKey atomic.Uint64

	conflicts atomic.Int64
	retryNs   atomic.Int64 // aborted attempts and backoff: first to last body entry
	waitStart int64
	waitSpan  int64

	calls   uint64
	sampled bool
	parent  int64
	post    int64 // open span from the last body exit, kind decided when it closes
	ring    []span
	next    int64

	firstEntry, lastEntry, exit int64
}

type tracer struct {
	lanes   []*lane // two per client
	other   *lane   // set-up and audit transactions
	all     []*lane // lanes and other
	replay  acc     // base calls outside any boosted call: undo replays
	mapTags uint64
}

func newTracer(clients int) *tracer {
	tr := &tracer{}
	for i := 0; i < 2*clients; i++ {
		tr.lanes = append(tr.lanes, &lane{tr: tr, id: i, parent: -1, post: -1, ring: make([]span, ringCap)})
	}
	tr.other = &lane{tr: tr, id: -1, parent: -1, post: -1}
	tr.all = append(append(tr.all, tr.lanes...), tr.other)
	return tr
}

// reset zeroes every sum and count; the rings keep their spans.
func (tr *tracer) reset() {
	for _, ln := range tr.all {
		for k := range ln.sum {
			ln.sum[k].ns.Store(0)
			ln.sum[k].n.Store(0)
		}
		ln.conflicts.Store(0)
		ln.retryNs.Store(0)
	}
	tr.replay.ns.Store(0)
	tr.replay.n.Store(0)
}

// lane returns client c's lane for branch b (0 for plain transactions).
func (tr *tracer) lane(c, b int) *lane { return tr.lanes[2*c+b] }

func (tr *tracer) laneOf(txid uint64) *lane {
	for _, ln := range tr.lanes {
		if ln.txid.Load() == txid {
			return ln
		}
	}
	return tr.other
}

// total sums one span kind over every lane.
func (tr *tracer) total(k spanKind) (ns, n float64) {
	for _, ln := range tr.all {
		ns += float64(ln.sum[k].ns.Load())
		n += float64(ln.sum[k].n.Load())
	}
	return ns, n
}

func (tr *tracer) mean(k spanKind) float64 { return ratio(tr.total(k)) }

func (tr *tracer) conflicts() (n float64) {
	for _, ln := range tr.all {
		n += float64(ln.conflicts.Load())
	}
	return n
}

// open starts a span under the lane's current parent and makes it the
// parent; it returns -1 (and records nothing) when the call is not sampled.
func (ln *lane) open(k spanKind, start int64) int64 {
	if !ln.sampled {
		return -1
	}
	id := ln.next
	ln.next++
	ln.ring[id%ringCap] = span{ID: id, Parent: ln.parent, Kind: k, Tx: uint64(ln.id)<<40 | ln.calls, Start: start}
	ln.parent = id
	return id
}

// close ends a span opened by open, settles its kind, and adds it to the
// layer's sums whether or not it was sampled.
func (ln *lane) close(k spanKind, id, start, end int64) {
	ln.sum[k].add(end - start)
	if id < 0 {
		return
	}
	if s := &ln.ring[id%ringCap]; s.ID == id {
		s.Kind, s.End = k, end
		ln.parent = s.Parent
	}
}

// emit records a finished leaf span.
func (ln *lane) emit(k spanKind, start, end int64) {
	ln.close(k, ln.open(k, start), start, end)
}

// start and end bracket one call into a layer, timed here.
func (ln *lane) start(k spanKind) (id, t0 int64) {
	t0 = now()
	return ln.open(k, t0), t0
}

func (ln *lane) end(k spanKind, id, t0 int64) { ln.close(k, id, t0, now()) }

// beginCall starts one Atomic / ReadOnlyOn / Span call on the lane.
func (ln *lane) beginCall(k spanKind, sampled bool, t0 int64) int64 {
	ln.calls++
	ln.sampled = sampled
	ln.parent, ln.post = -1, -1
	ln.firstEntry, ln.lastEntry, ln.exit = 0, 0, 0
	return ln.open(k, t0)
}

// wrap returns body instrumented as one attempt: it publishes the attempt's
// transaction ID, records the body span, and leaves a span open from the
// body's exit for whatever follows (commit, rollback, or abort and retry).
// The deferred exit also runs when a lock timeout unwinds the body.
func (ln *lane) wrap(body func(*tboost.Tx) error) func(*tboost.Tx) error {
	return func(tx *tboost.Tx) error {
		t := now()
		if ln.lastEntry != 0 { // the previous attempt aborted
			ln.close(spRetry, ln.post, ln.exit, t)
		}
		if ln.firstEntry == 0 {
			ln.firstEntry = t
		}
		ln.lastEntry = t
		ln.txid.Store(tx.ID())
		id := ln.open(spBody, t)
		defer func() {
			ln.curKey.Store(0)
			ln.exit = now()
			ln.close(spBody, id, t, ln.exit)
			ln.post = ln.open(spCommit, ln.exit)
		}()
		return body(tx)
	}
}

// endCall closes the call begun by beginCall. For a plain transaction the
// interval since the last body exit is the commit (err == nil) or the
// rollback of a declined call.
func (ln *lane) endCall(k spanKind, root, t0, t1 int64, err error) {
	if k == spTx && ln.firstEntry != 0 {
		switch {
		case err == nil:
			ln.close(spCommit, ln.post, ln.exit, t1)
		case err == errDeclined:
			ln.close(spRollback, ln.post, ln.exit, t1)
		}
		ln.sum[spBegin].add(ln.firstEntry - t0)
		ln.retryNs.Add(ln.lastEntry - ln.firstEntry)
	}
	ln.parent = root // a failed call may leave spans open below the root
	ln.close(k, root, t0, t1)
}

func (ln *lane) sampleNext() bool { return (ln.calls+1)%sampleEvery == 0 }

// atomic is sys.Atomic(wrapped) with the call's lifecycle recorded; wrapped
// must come from ln.wrap.
func (ln *lane) atomic(sys *tboost.System, wrapped func(*tboost.Tx) error) error {
	t0 := now()
	root := ln.beginCall(spTx, ln.sampleNext(), t0)
	err := sys.Atomic(wrapped)
	ln.endCall(spTx, root, t0, now(), err)
	return err
}

// readOnly is tboost.ReadOnlyOn(sys, wrapped), recorded as stm.ro_tx.
func (ln *lane) readOnly(sys *tboost.System, wrapped func(*tboost.Tx) error) error {
	t0 := now()
	root := ln.beginCall(spROTx, ln.sampleNext(), t0)
	err := tboost.ReadOnlyOn(sys, wrapped)
	ln.endCall(spROTx, root, t0, now(), err)
	return err
}

// tracedBranch adapts a wrapped body to a span branch.
func tracedBranch(wrapped func(*tboost.Tx) error) tboost.Branch {
	return func(tx *tboost.Tx, _ uint64) error { return wrapped(tx) }
}

// span is coord.Span(b0, b1) with the span and both branch bodies recorded;
// b0 and b1 must wrap bodies of ln and peer (the client's two lanes).
func (ln *lane) span(peer *lane, coord *tboost.Coordinator, b0, b1 tboost.Branch) error {
	t0 := now()
	sampled := ln.sampleNext()
	root := ln.beginCall(spSpan, sampled, t0)
	peer.beginCall(spSpan, false, t0)
	_, err := coord.Span(b0, b1)
	t1 := now()
	slow := int64(0)
	for _, l := range []*lane{ln, peer} {
		if d := l.exit - l.lastEntry; l.lastEntry != 0 && d > 0 {
			l.sum[spBranchBody].add(d)
			slow = max(slow, d)
		}
	}
	ln.sum[spSlowBranch].add(slow)
	ln.endCall(spSpan, root, t0, t1, err)
	return err
}

// tracePolicy is the System's ContentionPolicy in a traced pass. It resolves
// nothing — like the default (nil) policy, the timed acquisition is the
// whole discipline — and records each blocking round and each wait.
type tracePolicy struct{ tr *tracer }

func (tracePolicy) Name() string { return "timeout" }

func (p tracePolicy) OnConflict(waiter, _ *tboost.Tx) {
	ln := p.tr.laneOf(waiter.ID())
	ln.conflicts.Add(1)
	if ln != p.tr.other && ln.waitStart == 0 {
		ln.waitStart = now()
		ln.waitSpan = ln.open(spLockWait, ln.waitStart)
	}
}

func (p tracePolicy) OnWaitEnd(waiter *tboost.Tx) {
	ln := p.tr.laneOf(waiter.ID())
	if ln != p.tr.other && ln.waitStart != 0 {
		ln.close(spLockWait, ln.waitSpan, ln.waitStart, now())
		ln.waitStart = 0
	}
}

// traceSink is the System's durability sink in a traced pass: the real log
// with each of its three entry points and both barriers timed.
type traceSink struct {
	log *tboost.WAL
	tr  *tracer
}

func (s *traceSink) Overloaded() bool { return s.log.Overloaded() }

func (s *traceSink) Commit(txID uint64, ops []stm.RedoOp) func() error {
	ln := s.tr.laneOf(txID)
	t0 := now()
	wait := s.log.Commit(txID, ops)
	ln.emit(spWalAppend, t0, now())
	return timedWait(ln, wait)
}

func (s *traceSink) Prepare(txID, gid uint64, ops []stm.RedoOp) error {
	ln := s.tr.laneOf(txID)
	t0 := now()
	err := s.log.Prepare(txID, gid, ops)
	ln.emit(spWalPrepare, t0, now())
	return err
}

func (s *traceSink) Decide(txID, gid uint64, commit bool) (func() error, error) {
	ln := s.tr.laneOf(txID)
	t0 := now()
	wait, err := s.log.Decide(txID, gid, commit)
	ln.emit(spWalDecide, t0, now())
	return timedWait(ln, wait), err
}

func timedWait(ln *lane, wait func() error) func() error {
	if wait == nil {
		return nil
	}
	return func() error {
		t0 := now()
		err := wait()
		ln.emit(spWalWait, t0, now())
		return err
	}
}

// baseMap is what a boosted int64 map needs from its base: the BaseMap
// methods plus the key listing durability bindings checkpoint through.
type baseMap interface {
	tboost.BaseMapOf[int64, int64]
	Keys() []int64
}

// tracedBase times every base call and charges it to the lane whose boosted
// call is touching that key; a call no lane claims is an undo replay.
type tracedBase struct {
	inner baseMap
	tr    *tracer
	tag   uint64
}

func (tr *tracer) wrapBase(inner baseMap) *tracedBase {
	tr.mapTags++
	return &tracedBase{inner: inner, tr: tr, tag: tr.mapTags << 48}
}

func (b *tracedBase) done(key, t0 int64) {
	t1 := now()
	want := b.tag | uint64(key+1)
	for _, ln := range b.tr.lanes {
		if ln.curKey.Load() == want {
			// Sums only, no ring span: a snapshot reader and a writer may be
			// on the same key at once (the reader holds no lock), so the
			// matched lane is not provably the caller's.
			ln.sum[spBase].add(t1 - t0)
			return
		}
	}
	b.tr.replay.add(t1 - t0)
}

func (b *tracedBase) Keys() []int64 { return b.inner.Keys() }

func (b *tracedBase) Get(key int64) (int64, bool) {
	t0 := now()
	v, ok := b.inner.Get(key)
	b.done(key, t0)
	return v, ok
}

func (b *tracedBase) Put(key, val int64) (int64, bool) {
	t0 := now()
	old, ok := b.inner.Put(key, val)
	b.done(key, t0)
	return old, ok
}

func (b *tracedBase) Delete(key int64) (int64, bool) {
	t0 := now()
	old, ok := b.inner.Delete(key)
	b.done(key, t0)
	return old, ok
}

// The boosted objects as the workload bodies see them. With tracing off a
// body holds the tboost objects themselves; a traced pass hands it the
// wrappers below, one set per lane, so the bodies carry no tracing code.
type (
	kvMap interface {
		Get(tx *tboost.Tx, key int64) (int64, bool)
		Put(tx *tboost.Tx, key, val int64) (int64, bool)
	}
	priceIndex interface {
		Add(tx *tboost.Tx, key int64) bool
		Remove(tx *tboost.Tx, key int64) bool
		KeysRange(tx *tboost.Tx, lo, hi int64) []int64
		CountRange(tx *tboost.Tx, lo, hi int64) int
	}
	idSource interface {
		AssignID(tx *tboost.Tx) int64
	}
	counter interface {
		Add(tx *tboost.Tx, delta int64)
		Get(tx *tboost.Tx) int64
	}
)

// tracedMap times each boosted map call and publishes its key for base.
type tracedMap struct {
	m   *tboost.Map[int64]
	ln  *lane
	tag uint64
}

// traceMap returns m as ln's bodies should call it: m itself when tracing is
// off, else a timing wrapper tied to the base wrapper's tag.
func traceMap(ln *lane, m *tboost.Map[int64], base *tracedBase) kvMap {
	if ln == nil {
		return m
	}
	return tracedMap{m: m, ln: ln, tag: base.tag}
}

func (t tracedMap) Get(tx *tboost.Tx, key int64) (int64, bool) {
	t.ln.curKey.Store(t.tag | uint64(key+1))
	id, t0 := t.ln.start(spOp)
	v, ok := t.m.Get(tx, key)
	t.ln.end(spOp, id, t0)
	t.ln.curKey.Store(0)
	return v, ok
}

func (t tracedMap) Put(tx *tboost.Tx, key, val int64) (int64, bool) {
	t.ln.curKey.Store(t.tag | uint64(key+1))
	id, t0 := t.ln.start(spOp)
	old, ok := t.m.Put(tx, key, val)
	t.ln.end(spOp, id, t0)
	t.ln.curKey.Store(0)
	return old, ok
}

type tracedIndex struct {
	s  *tboost.OrderedSet
	ln *lane
}

func (t tracedIndex) Add(tx *tboost.Tx, key int64) bool {
	id, t0 := t.ln.start(spOp)
	ok := t.s.Add(tx, key)
	t.ln.end(spOp, id, t0)
	return ok
}

func (t tracedIndex) Remove(tx *tboost.Tx, key int64) bool {
	id, t0 := t.ln.start(spOp)
	ok := t.s.Remove(tx, key)
	t.ln.end(spOp, id, t0)
	return ok
}

func (t tracedIndex) KeysRange(tx *tboost.Tx, lo, hi int64) []int64 {
	id, t0 := t.ln.start(spRangeOp)
	keys := t.s.KeysRange(tx, lo, hi)
	t.ln.end(spRangeOp, id, t0)
	return keys
}

func (t tracedIndex) CountRange(tx *tboost.Tx, lo, hi int64) int {
	id, t0 := t.ln.start(spRangeOp)
	n := t.s.CountRange(tx, lo, hi)
	t.ln.end(spRangeOp, id, t0)
	return n
}

type tracedIDs struct {
	u  *tboost.UniqueID
	ln *lane
}

func (t tracedIDs) AssignID(tx *tboost.Tx) int64 {
	id, t0 := t.ln.start(spOp)
	v := t.u.AssignID(tx)
	t.ln.end(spOp, id, t0)
	return v
}

type tracedCounter struct {
	c  *tboost.Counter
	ln *lane
}

func (t tracedCounter) Add(tx *tboost.Tx, delta int64) {
	id, t0 := t.ln.start(spOp)
	t.c.Add(tx, delta)
	t.ln.end(spOp, id, t0)
}

func (t tracedCounter) Get(tx *tboost.Tx) int64 {
	id, t0 := t.ln.start(spOp)
	v := t.c.Get(tx)
	t.ln.end(spOp, id, t0)
	return v
}

// selfTimes returns, for each span, its duration minus the part of it its
// child spans cover (children are sequential, so that is their sum). A child
// whose parent is not in spans reduces nothing.
func selfTimes(spans []span) []int64 {
	at := make(map[int64]int, len(spans))
	self := make([]int64, len(spans))
	for i, s := range spans {
		at[s.ID] = i
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if i, ok := at[s.Parent]; ok {
			self[i] -= s.End - s.Start
		}
	}
	return self
}

// retained returns the lane's ring oldest first, finished spans only, with
// parents that have been overwritten turned into roots.
func (ln *lane) retained() []span {
	first := max(ln.next-ringCap, 0)
	out := make([]span, 0, ln.next-first)
	for id := first; id < ln.next; id++ {
		s := ln.ring[id%ringCap]
		if s.End == 0 {
			continue
		}
		if s.Parent < first {
			s.Parent = -1
		}
		out = append(out, s)
	}
	return out
}

// jsonSpan is one span as -trace-out writes it.
type jsonSpan struct {
	Lane   int    `json:"lane"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Tx     uint64 `json:"tx"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spans returns every lane's retained spans, each with its self time.
func (tr *tracer) spans() []jsonSpan {
	var out []jsonSpan
	for _, ln := range tr.lanes {
		spans := ln.retained()
		self := selfTimes(spans)
		for i, s := range spans {
			out = append(out, jsonSpan{ln.id, s.ID, s.Parent, s.Tx, spanNames[s.Kind], s.Start, s.End, self[i]})
		}
	}
	return out
}
