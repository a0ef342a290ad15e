package sim

import (
	"container/heap"
	"math/bits"
)

// This file implements the kernel's event queue as a calendar queue: a
// ring of fixed-width time buckets covering a sliding horizon, with a
// heap-ordered overflow rung for far-future events and a (rarely used)
// early rung for events scheduled behind the cursor after a RunUntil
// boundary. Timer-heavy MAC workloads (LPL wake samples, TSCH slot
// timers, ACK timeouts) schedule and cancel hundreds of sub-millisecond
// timers per virtual millisecond; a binary heap pays an O(log n) sift on
// every push and pop, while the calendar pays an amortised O(1) append
// into the right bucket and a cursor advance.
//
// Ordering contract (identical to the heap it replaced): events pop in
// ascending (at, seq) order, so same-instant events fire in scheduling
// order (FIFO). Cancellation stays lazy — cancelled nodes are collected
// when they reach the cursor — and the queue never inspects node
// generations: handle staleness is the kernel's business.
const (
	// calWidthBits makes the bucket width a power-of-two number of
	// nanoseconds (1<<17 ns ≈ 131 µs), so the at→bucket mapping is a
	// shift and a mask instead of two divisions. The width sits between
	// the CSMA backoff quantum (~hundreds of µs) and frame airtimes
	// (~ms): near-term timers spread over tens of buckets with a handful
	// of events each.
	calWidthBits = 17
	calWidth     = Time(1) << calWidthBits
	// calBuckets is the ring size; the covered horizon is
	// calBuckets × calWidth ≈ 67 ms. Events beyond it wait in the
	// overflow rung and migrate into buckets as the cursor advances.
	calBuckets = 512
	calSpan    = calWidth * calBuckets
	// occWords sizes the bucket-occupancy bitmap (one bit per bucket), the
	// structure that lets the cursor jump over runs of empty buckets in a
	// few word scans instead of walking them one window at a time.
	occWords = calBuckets / 64
)

// calendarQueue is the kernel's pending-event store. The zero value is
// ready to use; bucket storage is allocated on first push.
type calendarQueue struct {
	// buckets[i] holds the pending events of one calWidth-wide window in
	// ascending (at, seq) order; heads[i] is the consumed-prefix index.
	// Each bucket maps to exactly one window inside the current horizon,
	// so bucket order is global order.
	buckets [][]*eventNode
	heads   []int
	// cur is the cursor: the bucket whose window starts at winStart.
	// Windows behind the cursor are empty (their events were consumed);
	// the cursor only moves forward.
	cur      int
	winStart Time
	// count is the number of nodes stored in buckets (including
	// cancelled nodes awaiting collection).
	count int
	// occ is the bucket-occupancy bitmap: bit i set iff buckets[i] holds
	// unconsumed events. Sparse schedules (a lone ticker) would otherwise
	// pay a window-by-window cursor walk between events.
	occ [occWords]uint64
	// overflow holds events at or beyond winStart+calSpan, min-heap
	// ordered by (at, seq); they drain into buckets as windows free up.
	overflow eventHeap
	// early holds events scheduled behind winStart: possible only after
	// RunUntil stopped short of the next event (the cursor committed
	// ahead of the clock) and the caller then scheduled something near
	// now. Always popped first — every early event precedes every
	// bucketed one.
	early eventHeap
}

// len reports the number of stored nodes, cancelled ones included.
func (q *calendarQueue) len() int {
	return q.count + len(q.overflow) + len(q.early)
}

// push files a node by its instant: behind the cursor → early rung,
// inside the horizon → its bucket, beyond → overflow rung.
func (q *calendarQueue) push(n *eventNode) {
	if q.buckets == nil {
		q.buckets = make([][]*eventNode, calBuckets)
		q.heads = make([]int, calBuckets)
	}
	switch {
	case n.at < q.winStart:
		heap.Push(&q.early, n)
	case n.at < q.winStart+calSpan:
		q.insertBucket(n)
	default:
		heap.Push(&q.overflow, n)
	}
}

// insertBucket places n into its window's bucket, keeping the bucket's
// unconsumed suffix in ascending (at, seq) order. A fresh push carries
// the largest seq yet, so the common case — monotone timer scheduling —
// is a plain append; overflow-drained nodes (older seqs) binary-search
// their slot.
func (q *calendarQueue) insertBucket(n *eventNode) {
	idx := int(n.at>>calWidthBits) & (calBuckets - 1)
	b := q.buckets[idx]
	lo, hi := q.heads[idx], len(b)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b[mid].at < n.at || (b[mid].at == n.at && b[mid].seq < n.seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	b = append(b, nil)
	copy(b[lo+1:], b[lo:])
	b[lo] = n
	q.buckets[idx] = b
	q.occ[idx>>6] |= 1 << uint(idx&63)
	q.count++
}

// nextOccDist returns the ring distance from the cursor to the nearest
// occupied bucket (0 when the cursor's own bucket is occupied).
// Precondition: count > 0, so some bit is set and the scan terminates.
func (q *calendarQueue) nextOccDist() int {
	w := q.cur >> 6
	word := q.occ[w] &^ (1<<uint(q.cur&63) - 1)
	for {
		if word != 0 {
			idx := w<<6 + bits.TrailingZeros64(word)
			d := idx - q.cur
			if d < 0 {
				d += calBuckets
			}
			return d
		}
		w = (w + 1) % occWords
		word = q.occ[w]
	}
}

// peek returns the minimum (at, seq) node without removing it, or nil.
// It commits the cursor to the minimum's window; pop relies on that.
func (q *calendarQueue) peek() *eventNode {
	if len(q.early) > 0 {
		// Early events are strictly behind winStart, hence behind every
		// bucketed and overflow event.
		return q.early[0]
	}
	if q.count == 0 {
		if len(q.overflow) == 0 {
			return nil
		}
		// Nothing bucketed: jump the cursor straight to the overflow
		// minimum's window instead of sweeping empty buckets.
		win := q.overflow[0].at >> calWidthBits
		q.winStart = win << calWidthBits
		q.cur = int(win) & (calBuckets - 1)
		q.drainOverflow()
	}
	for {
		if b := q.buckets[q.cur]; q.heads[q.cur] < len(b) {
			return b[q.heads[q.cur]]
		}
		// Jump the cursor over the empty run. With an empty overflow rung
		// the jump is unconditional; otherwise it is bounded by the window
		// at which the overflow minimum enters the horizon, because that
		// drain could be the next occupied bucket.
		d := q.nextOccDist()
		if len(q.overflow) > 0 {
			if enter := int((q.overflow[0].at-q.winStart-calSpan)>>calWidthBits) + 1; enter < d {
				d = enter
			}
		}
		q.cur = (q.cur + d) & (calBuckets - 1)
		q.winStart += Time(d) << calWidthBits
		q.drainOverflow()
	}
}

// pop removes and returns the node peek found. Must follow a peek with
// no intervening mutation (the kernel's run loop guarantees this).
func (q *calendarQueue) pop() *eventNode {
	if len(q.early) > 0 {
		return heap.Pop(&q.early).(*eventNode)
	}
	b := q.buckets[q.cur]
	h := q.heads[q.cur]
	n := b[h]
	b[h] = nil
	h++
	if h == len(b) {
		q.buckets[q.cur] = b[:0]
		h = 0
		q.occ[q.cur>>6] &^= 1 << uint(q.cur&63)
	}
	q.heads[q.cur] = h
	q.count--
	return n
}

// drainOverflow migrates every overflow event inside the current horizon
// into its bucket. Nodes come off the heap in (at, seq) order, so within
// a bucket they append in order.
func (q *calendarQueue) drainOverflow() {
	horizon := q.winStart + calSpan
	for len(q.overflow) > 0 && q.overflow[0].at < horizon {
		q.insertBucket(heap.Pop(&q.overflow).(*eventNode))
	}
}

// eventHeap is a min-heap ordered by (at, seq): the overflow and early
// rungs of the calendar queue, and — being the previous event-queue
// implementation in its entirety — the ordering oracle the calendar's
// regression tests compare against.
type eventHeap []*eventNode

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*eventNode)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
