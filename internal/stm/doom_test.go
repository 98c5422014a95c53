package stm

import (
	"errors"
	"testing"
	"time"
)

func TestDoomedTransactionAbortsAtCommit(t *testing.T) {
	attempts := 0
	undone := false
	err := Atomic(func(tx *Tx) error {
		attempts++
		if attempts == 1 {
			tx.Log(func() { undone = true })
			tx.Doom() // as a contention manager would, asynchronously
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (doomed commit must retry)", attempts)
	}
	if !undone {
		t.Fatal("doomed transaction did not roll back")
	}
}

func TestDoomedFlagAndChan(t *testing.T) {
	_ = Atomic(func(tx *Tx) error {
		if tx.Doomed() {
			t.Error("fresh tx doomed")
		}
		ch := tx.DoomChan()
		select {
		case <-ch:
			t.Error("DoomChan closed before Doom")
		default:
		}
		if tx.Attempt() == 0 {
			tx.Doom()
			if !tx.Doomed() {
				t.Error("Doomed = false after Doom")
			}
			select {
			case <-ch:
			case <-time.After(time.Second):
				t.Error("DoomChan not closed by Doom")
			}
			// A second channel request after dooming is closed too.
			select {
			case <-tx.DoomChan():
			default:
				t.Error("post-doom DoomChan not closed")
			}
			// Double Doom must not panic (double close).
			tx.Doom()
		}
		return nil
	})
}

func TestDoomChanCreatedAfterDoomIsClosed(t *testing.T) {
	_ = Atomic(func(tx *Tx) error {
		if tx.Attempt() == 0 {
			tx.Doom() // doom before any DoomChan call
			select {
			case <-tx.DoomChan():
			default:
				t.Error("lazily created DoomChan not pre-closed")
			}
		}
		return nil
	})
}

// An open doom channel serves the descriptor's later attempts (blocked lock
// waits ask for one each); only a Doom, which closes it, makes the next
// attempt take a fresh one.
func TestDoomChanKeptUntilClosed(t *testing.T) {
	var chans []<-chan struct{}
	_ = Atomic(func(tx *Tx) error {
		chans = append(chans, tx.DoomChan())
		switch tx.Attempt() {
		case 0:
			tx.Abort(nil) // retried with the channel still open
		case 1:
			tx.Doom() // closes it; the commit fails and retries
		}
		return nil
	})
	if len(chans) != 3 {
		t.Fatalf("ran %d attempts, want 3", len(chans))
	}
	if chans[1] != chans[0] {
		t.Error("an open doom channel was replaced at retry")
	}
	if chans[2] == chans[1] {
		t.Fatal("a closed doom channel was kept for the next attempt")
	}
	select {
	case <-chans[2]:
		t.Error("fresh attempt's doom channel is closed")
	default:
	}
}

// A single-goroutine transaction rearms one timer per blocked wait; Parallel
// branches, which can wait at the same time, each get their own.
func TestWaitTimerReusedUnlessShared(t *testing.T) {
	_ = Atomic(func(tx *Tx) error {
		first := tx.WaitTimer(time.Hour)
		first.Stop()
		again := tx.WaitTimer(time.Millisecond)
		if again != first {
			t.Error("single-goroutine transaction got a second timer")
		}
		select {
		case <-again.C:
		case <-time.After(5 * time.Second):
			t.Error("rearmed timer never fired")
		}
		return tx.Parallel(func(tx *Tx) error {
			if branch := tx.WaitTimer(time.Hour); branch == first {
				t.Error("Parallel branch was handed the shared descriptor's timer")
			} else {
				branch.Stop()
			}
			return nil
		})
	})
}

func TestCauseVisibleInOnAbort(t *testing.T) {
	myErr := errors.New("specific cause")
	attempts := 0
	var seen error
	err := Atomic(func(tx *Tx) error {
		attempts++
		if tx.Cause() != nil {
			t.Error("Cause non-nil on fresh attempt")
		}
		if attempts == 1 {
			tx.OnAbort(func() { seen = tx.Cause() })
			tx.Abort(myErr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(seen, myErr) {
		t.Fatalf("Cause = %v, want %v", seen, myErr)
	}
}

func TestBirthStableAcrossRetries(t *testing.T) {
	var births []uint64
	var ids []uint64
	attempts := 0
	err := Atomic(func(tx *Tx) error {
		attempts++
		births = append(births, tx.Birth())
		ids = append(ids, tx.ID())
		if attempts < 3 {
			tx.Abort(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if births[0] != births[1] || births[1] != births[2] {
		t.Fatalf("Birth changed across retries: %v", births)
	}
	if births[0] != ids[0] {
		t.Fatalf("Birth %d != first attempt id %d", births[0], ids[0])
	}
	if ids[0] == ids[1] {
		t.Fatal("retry reused id")
	}
}

func TestAtCommitRunsBeforeLockRelease(t *testing.T) {
	var order []string
	l := &seqLock{order: &order}
	err := Atomic(func(tx *Tx) error {
		tx.RegisterLock(l)
		tx.AtCommit(func() { order = append(order, "atcommit") })
		tx.OnCommit(func() { order = append(order, "oncommit") })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"atcommit", "unlock", "oncommit"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

type seqLock struct{ order *[]string }

func (l *seqLock) Unlock(tx *Tx) { *l.order = append(*l.order, "unlock") }

func TestAtCommitNotRunOnAbort(t *testing.T) {
	ran := false
	_ = Atomic(func(tx *Tx) error {
		tx.AtCommit(func() { ran = true })
		return errors.New("fail")
	})
	if ran {
		t.Fatal("AtCommit handler ran on abort")
	}
}

func TestMustAtomicOn(t *testing.T) {
	sys := NewSystem(Config{})
	ran := false
	MustAtomicOn(sys, func(tx *Tx) { ran = true })
	if !ran {
		t.Fatal("body did not run")
	}
	// Panic path.
	limited := NewSystem(Config{MaxRetries: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("MustAtomicOn did not panic on retry exhaustion")
		}
	}()
	MustAtomicOn(limited, func(tx *Tx) { tx.Abort(nil) })
}

func TestSystemAccessor(t *testing.T) {
	sys := NewSystem(Config{})
	_ = sys.Atomic(func(tx *Tx) error {
		if tx.System() != sys {
			t.Error("System() mismatch")
		}
		return nil
	})
}
