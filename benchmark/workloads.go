package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tboost"
	"tboost/internal/rbtree"
)

// env is what a set-up is given: the seed its inputs derive from, how many
// clients will run, a fresh directory for its logs, and the tracer whose
// wrappers it installs (nil with tracing off).
type env struct {
	seed    uint64
	clients int
	dir     string
	tr      *tracer
}

// lane returns client c's lane for branch b, nil with tracing off.
func (e env) lane(c, b int) *lane {
	if e.tr == nil {
		return nil
	}
	return e.tr.lane(c, b)
}

type workload struct {
	name   string
	why    string
	reader bool // report the read-only clients' view, not the writers'
	setup  func(env) (instance, error)
}

var workloads = []workload{
	{name: "bank_mem", why: "2-leg transfers over 4096 accounts, WAL off: the uncontended stm + lockmgr + boost + rbtree path, no wal/mvcc/txncoord work",
		setup: bankParams{accounts: 4096, group: 4096, legs: 2}.setup},
	{name: "bank_hot", why: "14-leg ordered transfers over 16 accounts, every 16th declined: lockmgr's blocked path and stm rollback dominate",
		setup: bankParams{accounts: 16, group: 16, legs: 14, declineEvery: 16}.setup},
	{name: "bank_wal", why: "bank_mem's op stream behind a Group-mode WAL: encode, group-commit queue and fsync are nearly all of each transaction",
		setup: bankParams{accounts: 4096, group: 4096, legs: 2, durable: true}.setup},
	{name: "readmix_snap", why: "one writer's view beside snapshot readers on the same map: the writer pays version seeding, publish and GC",
		setup: bankParams{accounts: 4096, group: 64, legs: 2, readers: true}.setup},
	{name: "readmix_snap_ro", why: "the same load seen by the read-only clients: 64-key branch scans through mvcc pins and version chains, no locks",
		reader: true, setup: bankParams{accounts: 4096, group: 64, legs: 2, readers: true}.setup},
	{name: "warehouse_mix", why: "70/20/10 order/restock/audit over six objects: interval locks against point updates, shared counter against exclusive read",
		setup: setupWarehouse},
	{name: "span_2pc", why: "debit on one durable System, credit on another, under a durable coordinator: 2PC rounds and five forced writes per span",
		setup: setupSpans},
}

// newMap builds the boosted account map every workload uses — what
// tboost.NewRBTreeMap[int64] builds, with the base wrapped when tracing.
func newMap(tr *tracer) (*tboost.Map[int64], *tracedBase) {
	if tr == nil {
		return tboost.NewRBTreeMap[int64](), nil
	}
	base := tr.wrapBase(rbtree.NewSync[int64]())
	return tboost.NewMapOf[int64, int64](base), base
}

// newSystem returns a System with the configuration users get —
// tboost.Config{} — plus the log when there is one; a traced pass adds the
// recording contention policy and wraps the log.
func newSystem(tr *tracer, log *tboost.WAL) *tboost.System {
	var cfg tboost.Config
	if tr != nil {
		cfg.Contention = tracePolicy{tr}
	}
	switch {
	case log != nil && tr != nil:
		cfg.Durability = &traceSink{log: log, tr: tr}
	case log != nil:
		cfg.Durability = log
	}
	return tboost.NewSystem(cfg)
}

// atomicRunner returns the call a client makes per transaction: sys.Atomic of
// its body, recorded on ln when tracing.
func atomicRunner(sys *tboost.System, ln *lane, body func(*tboost.Tx) error) func() error {
	if ln == nil {
		return func() error { return sys.Atomic(body) }
	}
	wrapped := ln.wrap(body)
	return func() error { return ln.atomic(sys, wrapped) }
}

// ledger is an account map on its own System, bound to a log when durable.
type ledger struct {
	sys  *tboost.System
	m    *tboost.Map[int64]
	base *tracedBase
	log  *tboost.WAL
	dir  string
}

// openLedger opens the log in dir, binds a fresh map to it and recovers:
// an empty directory yields an empty map, a used one its last durable state.
func openLedger(dir string, mode tboost.WALMode, tr *tracer) (*ledger, error) {
	l := &ledger{dir: dir}
	l.m, l.base = newMap(tr)
	var err error
	if l.log, err = tboost.OpenWAL(tboost.WALOptions{Dir: dir, Mode: mode}); err != nil {
		return nil, err
	}
	if err = tboost.BindMap(l.log, "accounts", tboost.Int64Codec, tboost.Int64Codec, l.m); err == nil {
		_, err = l.log.Recover()
	}
	if err != nil {
		l.log.Close()
		return nil, err
	}
	l.sys = newSystem(tr, l.log)
	return l, nil
}

// fill binds accounts 0..n-1 to the initial balance in one transaction.
func fill(sys *tboost.System, m *tboost.Map[int64], n int) error {
	return sys.Atomic(func(tx *tboost.Tx) error {
		for a := 0; a < n; a++ {
			m.Put(tx, int64(a), initialBalance)
		}
		return nil
	})
}

// readAll reads accounts 0..n-1 in one transaction.
func readAll(sys *tboost.System, m *tboost.Map[int64], n int) ([]int64, error) {
	out := make([]int64, n)
	err := sys.Atomic(func(tx *tboost.Tx) error {
		for a := range out {
			v, ok := m.Get(tx, int64(a))
			if !ok {
				return fmt.Errorf("account %d missing", a)
			}
			out[a] = v
		}
		return nil
	})
	return out, err
}

func diff(what string, got, want []int64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: account %d is %d, ledger says %d", what, i, got[i], want[i])
		}
	}
	return nil
}

const initialBalance = 1_000_000

// --- bank_mem, bank_hot, bank_wal, readmix_snap ---

type bankParams struct {
	accounts     int
	group        int  // transfers stay inside one group of this many accounts
	legs         int  // balance changes per transfer
	declineEvery int  // every n-th transfer performs its legs, then declines
	durable      bool // Group-mode WAL
	readers      bool // client 0 writes, the others scan groups read-only
}

type bank struct {
	p   bankParams
	led *ledger
	ops []*transferOps // per writer client
	cl  []clientSpec
}

func (p bankParams) setup(e env) (instance, error) {
	b := &bank{p: p}
	if p.durable {
		var err error
		if b.led, err = openLedger(e.dir, tboost.WALGroup, e.tr); err != nil {
			return nil, err
		}
	} else {
		b.led = &ledger{sys: newSystem(e.tr, nil)}
		b.led.m, b.led.base = newMap(e.tr)
	}
	if err := fill(b.led.sys, b.led.m, p.accounts); err != nil {
		return nil, err
	}
	sys := b.led.sys
	for c := 0; c < e.clients; c++ {
		ln := e.lane(c, 0)
		m := traceMap(ln, b.led.m, b.led.base)
		if p.readers && c > 0 {
			rc := &readerClient{branches: genBranches(e.seed, c, p.accounts/p.group), group: int64(p.group), m: m}
			body := rc.body
			rc.run = func() error { return tboost.ReadOnlyOn(sys, body) }
			if ln != nil {
				wrapped := ln.wrap(body)
				rc.run = func() error { return ln.readOnly(sys, wrapped) }
			}
			b.cl = append(b.cl, clientSpec{client: rc, reader: true})
			continue
		}
		ops := genTransfers(e.seed, c, p.accounts, p.group, p.legs)
		ops.DeclineEvery = p.declineEvery
		b.ops = append(b.ops, ops)
		bc := &bankClient{ops: ops, m: m}
		bc.run = atomicRunner(sys, ln, bc.body)
		b.cl = append(b.cl, clientSpec{client: bc})
	}
	return b, nil
}

// bankClient runs transfers: Get then Put per leg, legs in ascending account
// order.
type bankClient struct {
	ops     *transferOps
	m       kvMap
	cur     []leg
	decline bool
	run     func() error
}

func (c *bankClient) do(seq int) error {
	c.cur, c.decline = c.ops.op(seq), c.ops.declined(seq)
	return c.run()
}

func (c *bankClient) body(tx *tboost.Tx) error {
	for _, l := range c.cur {
		v, _ := c.m.Get(tx, int64(l.Acct))
		c.m.Put(tx, int64(l.Acct), v+int64(l.Delta))
	}
	if c.decline {
		return errDeclined
	}
	return nil
}

// readerClient scans one group of accounts in a read-only transaction and
// requires the group's total to be what it was at the start: transfers never
// leave a group, so any other total is a torn snapshot.
type readerClient struct {
	branches []int32
	group    int64
	m        kvMap
	cur      int64
	run      func() error
}

func (c *readerClient) do(seq int) error {
	c.cur = int64(c.branches[seq&(opsPerClient-1)])
	return c.run()
}

func (c *readerClient) body(tx *tboost.Tx) error {
	var sum int64
	for a := c.cur * c.group; a < (c.cur+1)*c.group; a++ {
		v, _ := c.m.Get(tx, a)
		sum += v
	}
	if sum != c.group*initialBalance {
		return errInvariant
	}
	return nil
}

func (b *bank) clients() []clientSpec { return b.cl }

func (b *bank) counters() (c counters) {
	c.addSystem(b.led.sys)
	if b.led.log != nil {
		c.addLog(b.led.log, b.led.dir)
	}
	return c
}

func (b *bank) audit(runs []clientRun) (float64, error) {
	want := make([]int64, b.p.accounts)
	for a := range want {
		want[a] = initialBalance
	}
	for c, ops := range b.ops {
		for seq := 0; seq < runs[c].n; seq++ {
			if ops.declined(seq) || !runs[c].acked(seq) {
				continue
			}
			for _, l := range ops.op(seq) {
				want[l.Acct] += int64(l.Delta)
			}
		}
	}
	got, err := readAll(b.led.sys, b.led.m, b.p.accounts)
	if err == nil {
		err = diff("final state", got, want)
	}
	if err != nil || !b.p.durable {
		return 0, err
	}
	if err := b.led.log.Close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	re, err := openLedger(b.led.dir, tboost.WALGroup, nil)
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	defer re.log.Close()
	got, err = readAll(re.sys, re.m, b.p.accounts)
	if err == nil {
		err = diff("recovered state", got, want)
	}
	return recoverS, err
}

func (b *bank) close() error {
	if b.led.log != nil {
		return b.led.log.Close()
	}
	return nil
}

// --- warehouse_mix ---

const (
	whProducts     = 512
	whInitialStock = 1_000_000
	whOrderSlots   = 4096
)

// Product p costs whPrice(p); the price doubles as the product's key.
func whPrice(p int32) int64 { return 10*int64(p) + 5 }

type warehouse struct {
	sys           *tboost.System
	index         *tboost.OrderedSet
	stock, orders *tboost.Map[int64]
	ids           *tboost.UniqueID
	revenue       *tboost.Counter
	ops           [][]whOp
	cl            []clientSpec
}

func setupWarehouse(e env) (instance, error) {
	w := &warehouse{sys: newSystem(e.tr, nil), index: tboost.NewOrderedSet(), ids: tboost.NewUniqueID(), revenue: tboost.NewCounter(0)}
	var stockBase, ordersBase *tracedBase
	w.stock, stockBase = newMap(e.tr)
	w.orders, ordersBase = newMap(e.tr)
	err := w.sys.Atomic(func(tx *tboost.Tx) error {
		for p := int32(0); p < whProducts; p++ {
			w.index.Add(tx, whPrice(p))
			w.stock.Put(tx, whPrice(p), whInitialStock)
		}
		// Every order slot starts filled, so the measured window is the
		// steady state: each slot's abstract lock exists and an order
		// overwrites a binding instead of growing the map.
		for slot := int64(0); slot < whOrderSlots; slot++ {
			w.orders.Put(tx, slot, whPrice(0))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c := 0; c < e.clients; c++ {
		ops := genWarehouse(e.seed, c, whProducts)
		w.ops = append(w.ops, ops)
		ln := e.lane(c, 0)
		wc := &whClient{ops: ops, index: w.index, ids: w.ids, revenue: w.revenue,
			stock: traceMap(ln, w.stock, stockBase), orders: traceMap(ln, w.orders, ordersBase)}
		if ln != nil {
			wc.index, wc.ids, wc.revenue = tracedIndex{w.index, ln}, tracedIDs{w.ids, ln}, tracedCounter{w.revenue, ln}
		}
		wc.run = atomicRunner(w.sys, ln, wc.body)
		w.cl = append(w.cl, clientSpec{client: wc})
	}
	return w, nil
}

// whClient is examples/warehouse without the fulfilment queue, in steady
// state. Every transaction takes its locks in one global order — price index,
// then stock, then orders, then revenue — so the mix cannot deadlock.
type whClient struct {
	ops           []whOp
	cur           *whOp
	index         priceIndex
	stock, orders kvMap
	ids           idSource
	revenue       counter
	run           func() error
}

func (c *whClient) do(seq int) error {
	c.cur = &c.ops[seq&(opsPerClient-1)]
	return c.run()
}

func (c *whClient) body(tx *tboost.Tx) error {
	switch op := c.cur; op.Kind {
	case whOrder:
		band := c.index.KeysRange(tx, whPrice(op.Product), whPrice(op.Product+whBand-1))
		if len(band) != whBand {
			return errInvariant
		}
		price := band[op.Pick]
		units, _ := c.stock.Get(tx, price)
		c.stock.Put(tx, price, units-1)
		c.orders.Put(tx, c.ids.AssignID(tx)%whOrderSlots, price)
		c.revenue.Add(tx, price)
	case whRestock:
		price := whPrice(op.Product)
		c.index.Remove(tx, price)
		c.index.Add(tx, price)
		units, _ := c.stock.Get(tx, price)
		c.stock.Put(tx, price, units+int64(op.Qty))
	case whAudit:
		if c.index.CountRange(tx, 0, whPrice(whProducts)) != whProducts || c.revenue.Get(tx) < 0 {
			return errInvariant
		}
	}
	return nil
}

func (w *warehouse) clients() []clientSpec { return w.cl }

func (w *warehouse) counters() (c counters) {
	c.addSystem(w.sys)
	return c
}

func (w *warehouse) audit(runs []clientRun) (float64, error) {
	stock := make(map[int64]int64, whProducts)
	for p := int32(0); p < whProducts; p++ {
		stock[whPrice(p)] = whInitialStock
	}
	var revenue, orders int64
	for c, ops := range w.ops {
		for seq := 0; seq < runs[c].n; seq++ {
			if !runs[c].acked(seq) {
				continue
			}
			switch op := ops[seq&(opsPerClient-1)]; op.Kind {
			case whOrder:
				price := whPrice(op.Product + int32(op.Pick))
				stock[price]--
				revenue += price
				orders++
			case whRestock:
				stock[whPrice(op.Product)] += int64(op.Qty)
			}
		}
	}
	return 0, w.sys.Atomic(func(tx *tboost.Tx) error {
		if n := w.index.CountRange(tx, 0, whPrice(whProducts)); n != whProducts {
			return fmt.Errorf("price index holds %d products, want %d", n, whProducts)
		}
		for price, want := range stock {
			if got, _ := w.stock.Get(tx, price); got != want {
				return fmt.Errorf("stock of product %d is %d, ledger says %d", price, got, want)
			}
		}
		if got := w.revenue.Get(tx); got != revenue {
			return fmt.Errorf("revenue is %d, ledger says %d", got, revenue)
		}
		if got := w.ids.Assigned(); got < orders {
			return fmt.Errorf("%d order ids assigned for %d acknowledged orders", got, orders)
		}
		for slot := int64(0); slot < whOrderSlots; slot++ {
			price, ok := w.orders.Get(tx, slot)
			if _, known := stock[price]; !ok || !known {
				return fmt.Errorf("order slot %d holds unknown product %d", slot, price)
			}
		}
		return nil
	})
}

func (w *warehouse) close() error { return nil }

// --- span_2pc ---

const spanAccounts = 4096

type spanBench struct {
	root  string
	leds  [2]*ledger
	coord *tboost.Coordinator
	ops   [][]spanOp
	cl    []clientSpec
}

// openSpans opens (or recovers) both participants and the coordinator under
// root, resolving any in-doubt branch against the decision log.
func openSpans(root string, tr *tracer) (*spanBench, error) {
	s := &spanBench{root: root}
	var parts []tboost.Participant
	for i := range s.leds {
		led, err := openLedger(filepath.Join(root, fmt.Sprintf("p%d", i)), tboost.WALGroup, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.leds[i] = led
		parts = append(parts, tboost.Participant{Sys: led.sys, Log: led.log})
	}
	var err error
	if s.coord, err = tboost.NewCoordinator(parts, tboost.CoordinatorOptions{Dir: filepath.Join(root, "coord")}); err == nil {
		err = s.coord.Recover()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func setupSpans(e env) (instance, error) {
	s, err := openSpans(e.dir, e.tr)
	if err != nil {
		return nil, err
	}
	for _, led := range s.leds {
		if err := fill(led.sys, led.m, spanAccounts); err != nil {
			s.close()
			return nil, err
		}
	}
	for c := 0; c < e.clients; c++ {
		ops := genSpans(e.seed, c, spanAccounts)
		s.ops = append(s.ops, ops)
		l0, l1 := e.lane(c, 0), e.lane(c, 1)
		sc := &spanClient{ops: ops, from: traceMap(l0, s.leds[0].m, s.leds[0].base), to: traceMap(l1, s.leds[1].m, s.leds[1].base)}
		debit := func(tx *tboost.Tx, _ uint64) error { return sc.debit(tx) }
		credit := func(tx *tboost.Tx, _ uint64) error { return sc.credit(tx) }
		sc.run = func() error { _, err := s.coord.Span(debit, credit); return err }
		if l0 != nil {
			debit, credit = tracedBranch(l0.wrap(sc.debit)), tracedBranch(l1.wrap(sc.credit))
			sc.run = func() error { return l0.span(l1, s.coord, debit, credit) }
		}
		s.cl = append(s.cl, clientSpec{client: sc})
	}
	return s, nil
}

// spanClient moves money between the two Systems: one branch debits, the
// other credits, and the coordinator commits both or neither.
type spanClient struct {
	ops      []spanOp
	cur      *spanOp
	from, to kvMap
	run      func() error
}

func (c *spanClient) do(seq int) error {
	c.cur = &c.ops[seq&(opsPerClient-1)]
	return c.run()
}

func (c *spanClient) debit(tx *tboost.Tx) error {
	v, _ := c.from.Get(tx, int64(c.cur.From))
	c.from.Put(tx, int64(c.cur.From), v-int64(c.cur.Amt))
	return nil
}

func (c *spanClient) credit(tx *tboost.Tx) error {
	v, _ := c.to.Get(tx, int64(c.cur.To))
	c.to.Put(tx, int64(c.cur.To), v+int64(c.cur.Amt))
	return nil
}

func (s *spanBench) clients() []clientSpec { return s.cl }

func (s *spanBench) counters() (c counters) {
	for _, led := range s.leds {
		c.addSystem(led.sys)
		c.addLog(led.log, led.dir)
	}
	c[cDecisionFsyncs] = float64(s.coord.LogStats().Fsyncs)
	return c
}

// state reads both participants' accounts, System 0's first.
func (s *spanBench) state() ([]int64, error) {
	var out []int64
	for _, led := range s.leds {
		got, err := readAll(led.sys, led.m, spanAccounts)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

func (s *spanBench) audit(runs []clientRun) (float64, error) {
	want := make([]int64, 2*spanAccounts)
	for a := range want {
		want[a] = initialBalance
	}
	for c, ops := range s.ops {
		for seq := 0; seq < runs[c].n; seq++ {
			if op := ops[seq&(opsPerClient-1)]; runs[c].acked(seq) {
				want[op.From] -= int64(op.Amt)
				want[spanAccounts+int(op.To)] += int64(op.Amt)
			}
		}
	}
	got, err := s.state()
	if err == nil {
		err = diff("final state", got, want)
	}
	if err != nil {
		return 0, err
	}
	if err := s.close(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	re, err := openSpans(s.root, nil)
	recoverS := time.Since(t0).Seconds()
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	defer re.close()
	got, err = re.state()
	if err == nil {
		err = diff("recovered state", got, want)
	}
	return recoverS, err
}

// close closes the coordinator and both logs; closing twice is harmless.
func (s *spanBench) close() error {
	var first error
	if s.coord != nil {
		first = s.coord.Close()
	}
	for _, led := range s.leds {
		if led != nil {
			if err := led.log.Close(); first == nil {
				first = err
			}
		}
	}
	return first
}

// freshDir makes an empty directory for one set-up's logs.
func freshDir(root, name string) (string, error) {
	dir := filepath.Join(root, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
