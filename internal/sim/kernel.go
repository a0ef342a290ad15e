// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock with nanosecond resolution and a
// calendar-queue event store (see calendar.go). Events scheduled for the
// same instant fire in scheduling order (FIFO), which together with seeded
// random streams makes every simulation run bit-for-bit reproducible.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual-clock instant, expressed in nanoseconds since the start
// of the simulation. It is deliberately not time.Time: simulations have no
// calendar, only an origin.
type Time int64

// Common conversion helpers.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Duration converts a sim.Time offset to a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds returns the instant expressed in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the instant as a duration since the simulation origin.
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a time.Duration to a sim.Time offset.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// eventNode is the kernel-owned storage of one scheduled callback. Nodes
// are recycled through a free list once they fire or their cancellation is
// collected; gen counts incarnations so that stale Event handles held by
// callers can never act on a recycled node.
type eventNode struct {
	at       Time
	seq      uint64
	fn       func()
	gen      uint64
	canceled bool
}

// Event is a handle to one scheduled incarnation of a callback. It is a
// small value: copy it freely. The zero Event is inert — cancelling it is
// a no-op — so fields of type Event need no nil checks. Handles stay safe
// after their event fires: the kernel recycles the underlying storage, and
// a Cancel through a stale handle simply does nothing.
type Event struct {
	n   *eventNode
	gen uint64
}

// live reports whether the handle still refers to its own pending
// incarnation (scheduled, not yet fired, not cancelled-and-collected).
func (e Event) live() bool { return e.n != nil && e.n.gen == e.gen }

// At reports the instant the event is scheduled for; zero once the
// incarnation has completed and its storage was recycled.
func (e Event) At() Time {
	if e.live() {
		return e.n.at
	}
	return 0
}

// Canceled reports whether Cancel was called on this pending incarnation.
func (e Event) Canceled() bool { return e.live() && e.n.canceled }

// Kernel is the discrete-event scheduler. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now     Time
	queue   calendarQueue
	seq     uint64
	live    int // scheduled events not yet fired or cancelled
	free    []*eventNode
	running bool
	stopped bool
	seed    int64
	// budget caps the cell's execution; fired counts events executed
	// against budget.Events.
	budget Budget
	fired  uint64
	// streams holds the named random streams, created on first use.
	streams map[string]*RNG
}

// NewKernel returns a kernel with its clock at zero. All random streams
// derived from the kernel are seeded deterministically from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		seed:    seed,
		streams: make(map[string]*RNG),
	}
}

// Budget caps a simulation cell's execution deterministically: Events
// bounds the number of events the kernel will fire, Virtual bounds the
// instant any event may fire at. Zero fields are unlimited. Budgets are
// the runaway-cell guard for long sweeps — a scheduling loop (an event
// that reschedules itself without advancing useful work) trips the
// event budget, an experiment mis-sized by orders of magnitude trips
// the virtual-time budget — and because events fire in a fixed order,
// a budgeted cell trips at exactly the same event on every run: the
// failure is reproducible, never schedule-dependent.
type Budget struct {
	// Events is the maximum number of events fired; 0 means unlimited.
	Events uint64
	// Virtual is the latest instant an event may fire at; 0 means
	// unlimited. The clock itself may still advance past it idle (e.g.
	// RunUntil with an empty queue): only event execution is runaway.
	Virtual Time
}

// BudgetError is the panic value raised when a kernel exceeds its
// budget. It identifies the cell via the kernel's seed and where the
// run stood, so a sweep's failure report says which cell ran away and
// how far it got.
type BudgetError struct {
	// Kind is "events" or "virtual-time".
	Kind string
	// Budget is the limit that was exceeded.
	Budget Budget
	// Seed is the kernel's root seed (the cell identity within a sweep).
	Seed int64
	// At is the virtual instant of the event that tripped the budget.
	At Time
	// Fired is the number of events executed before tripping.
	Fired uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: %s budget exceeded (seed %d): %d events fired, clock %v, budget {events %d, virtual %v}",
		e.Kind, e.Seed, e.Fired, e.At, e.Budget.Events, e.Budget.Virtual)
}

// SetBudget installs an execution budget. Call before Run.
func (k *Kernel) SetBudget(b Budget) { k.budget = b }

// FiredEvents reports the number of events executed since construction.
func (k *Kernel) FiredEvents() uint64 { return k.fired }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the root seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// At schedules fn to run at instant t. Scheduling in the past (t < Now) is a
// programming error and panics: the simulation would otherwise silently
// reorder causality.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	n := k.newNode()
	n.at, n.seq, n.fn = t, k.seq, fn
	k.seq++
	k.queue.push(n)
	k.live++
	return Event{n: n, gen: n.gen}
}

// After schedules fn to run d after the current instant.
func (k *Kernel) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+FromDuration(d), fn)
}

// newNode pops a recycled node from the free list, or allocates one.
func (k *Kernel) newNode() *eventNode {
	if n := len(k.free); n > 0 {
		node := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return node
	}
	return &eventNode{}
}

// recycle returns a node to the free list. Bumping gen invalidates every
// outstanding handle to the incarnation that just ended.
func (k *Kernel) recycle(n *eventNode) {
	n.gen++
	n.fn = nil
	n.canceled = false
	k.free = append(k.free, n)
}

// Cancel removes a pending event. Cancellation is lazy: the node is only
// marked dead and skipped (and recycled) when it reaches the head of the
// queue, which is O(1) instead of heap.Remove's O(log n). Cancelling the
// zero Event, a fired event, or an already-cancelled event is a no-op —
// the generation counter on the node detects stale handles even after the
// node's storage has been reused for a later event.
func (k *Kernel) Cancel(e Event) {
	n := e.n
	if n == nil || n.gen != e.gen || n.canceled {
		return
	}
	n.canceled = true
	k.live--
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (k *Kernel) Stop() { k.stopped = true }

// Pending reports the number of events still scheduled to fire (cancelled
// events awaiting lazy collection are not counted).
func (k *Kernel) Pending() int { return k.live }

// Run executes events until the queue is empty or Stop is called.
func (k *Kernel) Run() {
	k.run(func(Time) bool { return true })
}

// RunUntil executes events with at <= deadline, then advances the clock to
// the deadline. Events scheduled exactly at the deadline do fire.
func (k *Kernel) RunUntil(deadline Time) {
	k.run(func(at Time) bool { return at <= deadline })
	if !k.stopped && k.now < deadline {
		k.now = deadline
	}
}

// RunFor runs the simulation for d of virtual time from the current instant.
func (k *Kernel) RunFor(d time.Duration) {
	k.RunUntil(k.now + FromDuration(d))
}

func (k *Kernel) run(keep func(Time) bool) {
	if k.running {
		panic("sim: Kernel.Run called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	k.stopped = false
	for !k.stopped {
		next := k.queue.peek()
		if next == nil {
			return
		}
		if !keep(next.at) {
			return
		}
		k.queue.pop()
		if next.canceled {
			k.recycle(next)
			continue
		}
		// Budget enforcement happens at the instant an event would fire,
		// so a budgeted cell trips at the same event on every run.
		if b := k.budget; b.Virtual > 0 && next.at > b.Virtual {
			panic(&BudgetError{Kind: "virtual-time", Budget: b, Seed: k.seed, At: next.at, Fired: k.fired})
		} else if b.Events > 0 && k.fired >= b.Events {
			panic(&BudgetError{Kind: "events", Budget: b, Seed: k.seed, At: next.at, Fired: k.fired})
		}
		k.now = next.at
		k.live--
		k.fired++
		fn := next.fn
		// Recycle before invoking: fn may schedule new events, and the node
		// may be handed right back out. The generation bump means any handle
		// to the event now firing is already stale inside its own callback.
		k.recycle(next)
		fn()
	}
}
