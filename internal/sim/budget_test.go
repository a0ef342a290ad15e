package sim

import (
	"errors"
	"testing"
	"time"
)

// trip runs fn and returns the *BudgetError it panics with, or nil.
func trip(t *testing.T, fn func()) *BudgetError {
	t.Helper()
	var be *BudgetError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			var ok bool
			be, ok = r.(*BudgetError)
			if !ok {
				t.Fatalf("panic value %T (%v), want *BudgetError", r, r)
			}
		}()
		fn()
	}()
	return be
}

// selfRescheduling schedules an event that re-arms itself forever — the
// canonical runaway cell.
func selfRescheduling(k *Kernel, period Time) {
	var again func()
	again = func() { k.At(k.Now()+period, again) }
	k.At(0, again)
}

func TestEventBudgetTripsRunaway(t *testing.T) {
	k := NewKernel(42)
	k.SetBudget(Budget{Events: 100})
	selfRescheduling(k, Millisecond)
	be := trip(t, func() { k.Run() })
	if be == nil {
		t.Fatal("runaway cell ran to completion under an event budget")
	}
	if be.Kind != "events" || be.Fired != 100 || be.Seed != 42 {
		t.Fatalf("BudgetError = %+v, want events kind, 100 fired, seed 42", be)
	}
	if be.Error() == "" || !errors.As(error(be), &be) {
		t.Fatalf("BudgetError must be a usable error: %v", be)
	}
}

func TestVirtualBudgetTripsRunaway(t *testing.T) {
	k := NewKernel(7)
	k.SetBudget(Budget{Virtual: 10 * Millisecond})
	selfRescheduling(k, Millisecond)
	be := trip(t, func() { k.Run() })
	if be == nil {
		t.Fatal("runaway cell ran to completion under a virtual-time budget")
	}
	if be.Kind != "virtual-time" || be.At <= 10*Millisecond-Millisecond {
		t.Fatalf("BudgetError = %+v, want virtual-time kind tripping just past the budget", be)
	}
	// Events at or before the budget all fired (0..10 ms inclusive).
	if be.Fired != 11 {
		t.Fatalf("fired %d events before tripping, want 11", be.Fired)
	}
}

// The trip point is a function of the seed and schedule alone: two
// identical budgeted runs fail at exactly the same event and instant.
func TestBudgetTripIsDeterministic(t *testing.T) {
	run := func() *BudgetError {
		k := NewKernel(1)
		k.SetBudget(Budget{Events: 57})
		selfRescheduling(k, 3*Microsecond)
		return trip(t, func() { k.Run() })
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("budget did not trip")
	}
	if a.At != b.At || a.Fired != b.Fired || a.Kind != b.Kind {
		t.Fatalf("trip point differs across identical runs: %+v vs %+v", a, b)
	}
}

// A zero budget is unlimited, and a bounded simulation completes under
// a generous budget without tripping.
func TestBudgetZeroAndHeadroom(t *testing.T) {
	for _, b := range []Budget{{}, {Events: 1000, Virtual: Second}} {
		k := NewKernel(1)
		k.SetBudget(b)
		fired := 0
		for i := 0; i < 10; i++ {
			i := i
			k.At(Time(i)*Millisecond, func() { fired++ })
		}
		if be := trip(t, func() { k.Run() }); be != nil {
			t.Fatalf("budget %+v tripped on a 10-event run: %v", b, be)
		}
		if fired != 10 {
			t.Fatalf("budget %+v: fired %d, want 10", b, fired)
		}
	}
}

// Canceled events do not count against the event budget: only executed
// callbacks are work.
func TestBudgetIgnoresCanceledEvents(t *testing.T) {
	k := NewKernel(1)
	k.SetBudget(Budget{Events: 5})
	for i := 0; i < 20; i++ {
		e := k.At(Time(i)*Millisecond, func() {})
		if i%2 == 0 {
			k.Cancel(e)
		}
	}
	// 10 live events against a budget of 5: trips at the 6th live one.
	be := trip(t, func() { k.Run() })
	if be == nil || be.Fired != 5 {
		t.Fatalf("BudgetError = %+v, want trip after 5 fired (canceled events free)", be)
	}
}

// RunUntil may advance the clock past the virtual budget when idle —
// only firing an event past the budget is a runaway.
func TestVirtualBudgetAllowsIdleClockAdvance(t *testing.T) {
	k := NewKernel(1)
	k.SetBudget(Budget{Virtual: 10 * Millisecond})
	k.At(5*Millisecond, func() {})
	if be := trip(t, func() { k.RunUntil(FromDuration(time.Second)) }); be != nil {
		t.Fatalf("idle clock advance tripped the virtual budget: %v", be)
	}
	if k.Now() != FromDuration(time.Second) {
		t.Fatalf("clock at %v, want 1s", k.Now())
	}
}
