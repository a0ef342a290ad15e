package mac

import (
	"testing"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

func TestSuspendFlushesQueueThroughOnDropped(t *testing.T) {
	k, md := world(t)
	n := newNode(k, md, 1, 0, Config{})

	var dropped []*frame.Frame
	n.m.OnDropped = func(f *frame.Frame) { dropped = append(dropped, f) }

	for i := 0; i < 3; i++ {
		if !n.m.Send(dataTo(2, 16)) {
			t.Fatal("Send rejected")
		}
	}
	n.m.Suspend()

	if !n.m.Suspended() {
		t.Fatal("Suspended() = false after Suspend")
	}
	if len(dropped) != 3 {
		t.Fatalf("dropped = %d frames, want all 3 (RAM does not survive a crash)", len(dropped))
	}
	if got := n.m.QueueLen(); got != 0 {
		t.Fatalf("queue length = %d after Suspend, want 0", got)
	}
}

func TestSuspendedMACTransmitsNothing(t *testing.T) {
	k, md := world(t)
	n := newNode(k, md, 1, 0, Config{})
	n.m.Suspend()

	// Send still accepts (the reboot image may queue work before the MAC
	// is resumed) but nothing goes on the air.
	if !n.m.Send(dataTo(2, 16)) {
		t.Fatal("Send rejected")
	}
	k.RunUntil(sim.FromDuration(time.Second))
	if got := n.m.Counters().Sent; got != 0 {
		t.Fatalf("Sent = %d while suspended, want 0", got)
	}
}

func TestResumeKicksPendingTraffic(t *testing.T) {
	k, md := world(t)
	a := newNode(k, md, 1, 0, Config{})
	b := newNode(k, md, 2, 1, Config{})

	var got int
	b.m.OnReceive = func(radio.Reception) { got++ }

	a.m.Suspend()
	if !a.m.Send(dataTo(2, 16)) {
		t.Fatal("Send rejected")
	}
	k.RunUntil(sim.FromDuration(500 * time.Millisecond))
	if got != 0 {
		t.Fatal("frame delivered while the sender was suspended")
	}

	a.m.Resume()
	if a.m.Suspended() {
		t.Fatal("Suspended() = true after Resume")
	}
	k.RunUntil(sim.FromDuration(time.Second))
	if got != 1 {
		t.Fatalf("deliveries after resume = %d, want 1", got)
	}
}

func TestSuspendAndResumeAreIdempotent(t *testing.T) {
	k, md := world(t)
	n := newNode(k, md, 1, 0, Config{})
	_ = k

	var dropped int
	n.m.OnDropped = func(*frame.Frame) { dropped++ }
	if !n.m.Send(dataTo(2, 16)) {
		t.Fatal("Send rejected")
	}
	n.m.Suspend()
	n.m.Suspend()
	if dropped != 1 {
		t.Fatalf("dropped = %d after double Suspend, want 1", dropped)
	}
	n.m.Resume()
	n.m.Resume()
	if n.m.Suspended() {
		t.Fatal("Suspended() = true after Resume")
	}
}

func TestSuspendCancelsAckWait(t *testing.T) {
	k, md := world(t)
	a := newNode(k, md, 1, 0, Config{AckEnabled: true})
	// No receiver ACKs: the sender would normally retry on ACK timeout.
	if !a.m.Send(dataTo(9, 16)) {
		t.Fatal("Send rejected")
	}
	// Suspend mid-exchange, once the frame is in flight.
	k.RunUntil(sim.FromDuration(2 * time.Millisecond))
	a.m.Suspend()
	sent := a.m.Counters().Sent
	k.RunUntil(sim.FromDuration(2 * time.Second))
	if got := a.m.Counters().Sent; got != sent {
		t.Fatalf("retries while suspended: Sent %d -> %d", sent, got)
	}
}

// TestResumeDoesNotReviveStaleBackoff: a crash mid-backoff kills the
// pending CSMA step with the rest of the MAC's RAM. Were it left pending,
// it would fire after the reboot on whatever frame then heads the queue,
// alongside the CSMA run that frame's Send started, and one frame would
// take two clear-channel assessments.
func TestResumeDoesNotReviveStaleBackoff(t *testing.T) {
	k, md := world(t)
	n := newNode(k, md, 1, 0, Config{})

	if !n.m.Send(dataTo(2, 16)) { // schedules the first backoff
		t.Fatal("Send rejected")
	}
	n.m.Suspend()
	n.m.Resume()
	if !n.m.Send(dataTo(2, 16)) {
		t.Fatal("Send rejected after Resume")
	}
	k.RunUntil(sim.FromDuration(time.Second))

	c := n.m.Counters()
	if c.ClearCCA != 1 || c.BusyCCA != 0 || c.Sent != 1 || c.AccessFailures != 0 {
		t.Fatalf("one post-reboot frame: ClearCCA %d, BusyCCA %d, Sent %d, AccessFailures %d; want 1, 0, 1, 0",
			c.ClearCCA, c.BusyCCA, c.Sent, c.AccessFailures)
	}
}
