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
