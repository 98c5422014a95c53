//go:build !race

package tboost_test

import (
	"testing"

	"tboost"
)

// TestTransferAllocsZero is the thinness claim at the public surface: a
// two-leg transfer through the facade's map — lock, base call and typed undo
// record per leg, commit — performs no heap allocation from Atomic to
// return. (Not built under the race detector, whose instrumentation
// allocates on its own.)
func TestTransferAllocsZero(t *testing.T) {
	sys := tboost.NewSystem(tboost.Config{})
	accounts := tboost.NewRBTreeMap[int64]()
	if err := sys.Atomic(func(tx *tboost.Tx) error {
		for a := int64(0); a < 64; a++ {
			accounts.Put(tx, a, 1000)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var from int64
	transfer := func(tx *tboost.Tx) error {
		to := (from + 7) & 63
		accounts.Update(tx, from, func(v int64, _ bool) int64 { return v - 1 })
		accounts.Update(tx, to, func(v int64, _ bool) int64 { return v + 1 })
		return nil
	}
	if err := sys.Atomic(transfer); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		from = (from + 1) & 63
		if err := sys.Atomic(transfer); err != nil {
			t.Error(err)
		}
	})
	if avg > 0 {
		t.Fatalf("a two-leg transfer allocates %.2f objects, want 0", avg)
	}
}

// TestFirstTouchAllocsPerKey pins the cost of a key's first use — tree node,
// lock-table entry and the amortised growth of the table, the undo log and
// the transaction's lock set — as a count: one transaction filling a fresh
// map with 65 536 keys commits on fewer than six objects a key. With a lock
// table that copied its stripe on every install the same fill allocated a
// gigabyte.
func TestFirstTouchAllocsPerKey(t *testing.T) {
	const keys = 65536
	sys := tboost.NewSystem(tboost.Config{})
	m := tboost.NewRBTreeMap[int64]()
	avg := testing.AllocsPerRun(1, func() {
		m = tboost.NewRBTreeMap[int64]()
		if err := sys.Atomic(func(tx *tboost.Tx) error {
			for k := int64(0); k < keys; k++ {
				m.Put(tx, k, k)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	})
	if perKey := avg / keys; perKey >= 6 {
		t.Fatalf("first touch allocates %.2f objects per key, want fewer than 6", perKey)
	}
}
