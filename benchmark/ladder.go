package main

import (
	"path/filepath"
	"time"

	"tboost"
	"tboost/internal/lockmgr"
	"tboost/internal/rbtree"
)

// The cost ladder: one client, one Put per transaction, on bank_mem's key
// stream, one rung per layer added — so what a layer costs is the difference
// between two rungs. The rungs, bottom up:
//
//	base          raw rbtree.Sync.Put, no transaction
//	stm_empty     an empty Atomic: the transaction lifecycle alone
//	lock          + LockMap.Lock on the key
//	undo          + the base Put and tx.Log of its inverse: the paper's
//	              hand-written boosted method
//	boosted       Map.Put through the boosting kernel, no sink
//	wal_off       + a bound log in mode Off: redo capture, no append
//	wal_async     + append, no barrier
//	wal_group     + group-commit barrier: one fsync per transaction here
//	versioned     boosted with a snapshot pinned: version seeding and publish
//	span          one Put on each of two durable Systems under a coordinator
//
// and two side rungs that own named debts: lazy (NewLazyRBTreeMap) and
// ordered_point (OrderedSet.Add/Remove, alternating).
const ladderAccounts = 4096

// timeRung calls f(i) for i = 0, 1, ... for about budget and returns
// nanoseconds per call, after a few untimed calls.
func timeRung(budget time.Duration, f func(i int)) float64 {
	const warm = 64
	for i := 0; i < warm; i++ {
		f(i)
	}
	n := warm
	start := time.Now()
	for time.Since(start) < budget {
		for j := 0; j < 16; j++ {
			f(n)
			n++
		}
	}
	return float64(time.Since(start)) / float64(n-warm)
}

func runLadder(seed uint64, dir string, budget time.Duration) (rungs []metric, err error) {
	stream := genTransfers(seed, 0, ladderAccounts, ladderAccounts, 2)
	key := func(i int) int64 { return int64(stream.Legs[i&(len(stream.Legs)-1)].Acct) }
	check := func(e error) {
		if err == nil {
			err = e
		}
	}
	add := func(name string, ns float64) { rungs = append(rungs, metric{"ladder." + name, ns, "ns"}) }

	// putRung times one Put per transaction on m, every key's lock installed.
	putRung := func(sys *tboost.System, m *tboost.Map[int64]) float64 {
		check(fill(sys, m, ladderAccounts))
		var k, v int64
		body := func(tx *tboost.Tx) error { m.Put(tx, k, v); return nil }
		return timeRung(budget, func(i int) { k, v = key(i), int64(i); check(sys.Atomic(body)) })
	}

	tree := rbtree.NewSync[int64]()
	add("base_ns", timeRung(budget, func(i int) { tree.Put(key(i), int64(i)) }))

	sys := tboost.NewSystem(tboost.Config{})
	empty := func(*tboost.Tx) error { return nil }
	add("stm_empty_ns", timeRung(budget, func(int) { check(sys.Atomic(empty)) }))

	locks := lockmgr.NewLockMap[int64]()
	for a := int64(0); a < ladderAccounts; a++ {
		locks.Get(a)
	}
	var k, v int64
	lockOnly := func(tx *tboost.Tx) error { locks.Lock(tx, k); return nil }
	add("lock_ns", timeRung(budget, func(i int) { k = key(i); check(sys.Atomic(lockOnly)) }))

	byHand := func(tx *tboost.Tx) error {
		locks.Lock(tx, k)
		k := k
		if old, existed := tree.Put(k, v); existed {
			tx.Log(func() { tree.Put(k, old) })
		} else {
			tx.Log(func() { tree.Delete(k) })
		}
		return nil
	}
	add("undo_ns", timeRung(budget, func(i int) { k, v = key(i), int64(i); check(sys.Atomic(byHand)) }))

	add("boosted_ns", putRung(tboost.NewSystem(tboost.Config{}), tboost.NewRBTreeMap[int64]()))

	var groupFsyncs float64
	for _, mode := range []struct {
		name string
		mode tboost.WALMode
	}{{"wal_off_ns", tboost.WALOff}, {"wal_async_ns", tboost.WALAsync}, {"wal_group_ns", tboost.WALGroup}} {
		led, e := openLedger(filepath.Join(dir, mode.name), mode.mode, nil)
		if e != nil {
			return nil, e
		}
		add(mode.name, putRung(led.sys, led.m))
		// The last mode is Group: with one client nothing shares a batch, so
		// every commit (putRung's fill included) has an fsync of its own.
		groupFsyncs = ratio(float64(led.log.Stats().Fsyncs), float64(led.log.Stats().Commits))
		check(led.log.Close())
	}

	vsys, vmap := tboost.NewSystem(tboost.Config{}), tboost.NewRBTreeMap[int64]()
	check(fill(vsys, vmap, ladderAccounts))
	pin := tboost.OpenSnapshot(vsys)
	body := func(tx *tboost.Tx) error { vmap.Put(tx, k, v); return nil }
	add("versioned_ns", timeRung(budget, func(i int) {
		if i%ladderAccounts == 0 {
			// A pin is always held, but renewed so the retained history
			// stays bounded however long the rung runs.
			next := tboost.OpenSnapshot(vsys)
			pin.Close()
			pin = next
		}
		k, v = key(i), int64(i)
		check(vsys.Atomic(body))
	}))
	pin.Close()

	spans, e := openSpans(filepath.Join(dir, "span"), nil)
	if e != nil {
		return nil, e
	}
	for _, led := range spans.leds {
		check(fill(led.sys, led.m, ladderAccounts))
	}
	b0 := func(tx *tboost.Tx, _ uint64) error { spans.leds[0].m.Put(tx, k, v); return nil }
	b1 := func(tx *tboost.Tx, _ uint64) error { spans.leds[1].m.Put(tx, k, v); return nil }
	before := spans.counters()
	n := 0
	add("span_ns", timeRung(budget, func(i int) {
		k, v = key(i), int64(i)
		_, e := spans.coord.Span(b0, b1)
		check(e)
		n++
	}))
	d := spans.counters().sub(before)
	spanFsyncs := ratio(d[cWalFsyncs]+d[cDecisionFsyncs], float64(n))
	check(spans.close())

	add("lazy_ns", putRung(tboost.NewSystem(tboost.Config{}), tboost.NewLazyRBTreeMap[int64]()))

	index := tboost.NewOrderedSet()
	point := func(tx *tboost.Tx) error {
		if v == 0 {
			index.Add(tx, k)
		} else {
			index.Remove(tx, k)
		}
		return nil
	}
	add("ordered_point_ns", timeRung(budget, func(i int) { k, v = key(i/2), int64(i%2); check(sys.Atomic(point)) }))

	rungs = append(rungs,
		metric{"ladder.fsyncs_per_tx_group", groupFsyncs, "count"},
		metric{"ladder.fsyncs_per_span", spanFsyncs, "count"})
	return rungs, err
}
