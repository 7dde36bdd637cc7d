package sim

import "testing"

// TestCancelAfterStop pins the interaction between Stop and Cancel: after
// a handler stops the run, every still-pending event can be canceled, the
// cancellations report true exactly once, and a resumed run fires none of
// them.
func TestCancelAfterStop(t *testing.T) {
	e := New()
	var fired []int
	e.At(10, func(e *Engine) {
		fired = append(fired, 1)
		e.Stop()
	})
	var ids []EventID
	for i := 2; i <= 5; i++ {
		i := i
		ids = append(ids, e.At(Time(10*i), func(*Engine) {
			fired = append(fired, i)
		}))
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("run before stop fired %v, want [1]", fired)
	}
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d after Stop, want 4", e.Pending())
	}
	for i, id := range ids {
		if !e.Cancel(id) {
			t.Errorf("Cancel(#%d) after Stop = false, want true", i)
		}
		if e.Cancel(id) {
			t.Errorf("second Cancel(#%d) = true, want false", i)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after canceling all, want 0", e.Pending())
	}
	if end := e.Run(); end != 10 {
		t.Errorf("resumed run ended at %v, want 10 (no events left)", end)
	}
	if len(fired) != 1 {
		t.Errorf("canceled events fired anyway: %v", fired)
	}
}

// TestCancelDuringRun pins Cancel called from inside a handler, against
// events at the same instant and in the future — both must be suppressed,
// and canceling the currently-executing event must report false (it has
// already fired).
func TestCancelDuringRun(t *testing.T) {
	e := New()
	var fired []string
	var self, sameTime, future EventID
	self = e.At(10, func(e *Engine) {
		fired = append(fired, "killer")
		if e.Cancel(self) {
			t.Error("canceling the executing event reported true")
		}
		if !e.Cancel(sameTime) {
			t.Error("canceling a same-instant pending event reported false")
		}
		if !e.Cancel(future) {
			t.Error("canceling a future event reported false")
		}
	})
	sameTime = e.At(10, func(*Engine) { fired = append(fired, "sameTime") })
	future = e.At(1<<40, func(*Engine) { fired = append(fired, "future") })
	e.At(20, func(*Engine) { fired = append(fired, "survivor") })
	e.Run()
	if want := []string{"killer", "survivor"}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("fired %v, want %v", fired, want)
	}
}

// TestStaleEventIDAfterReuse verifies the generation check: once an event
// fires, its EventID must never cancel a later event that reuses the same
// pooled node.
func TestStaleEventIDAfterReuse(t *testing.T) {
	e := New()
	stale := e.At(1, func(*Engine) {})
	e.Run()
	// The engine's free list now holds the node from the fired event; the
	// next schedule reuses it.
	fired := false
	e.At(2, func(*Engine) { fired = true })
	if e.Cancel(stale) {
		t.Error("stale EventID canceled a reused node")
	}
	e.Run()
	if !fired {
		t.Error("event on reused node never fired")
	}
}

// TestOverflowTierOrdering mixes near events with events ≥ 2^48 ns
// ahead (beyond the horizon of the hierarchical timer wheel that once
// backed the engine, where they waited in a separate overflow tier) and
// checks global firing order, including FIFO ties among the far events.
func TestOverflowTierOrdering(t *testing.T) {
	e := New()
	var fired []int
	record := func(label int) Handler {
		return func(*Engine) { fired = append(fired, label) }
	}
	far := Time(1) << 52
	e.At(far+5, record(4))
	e.At(100, record(1))
	e.At(far, record(3))
	e.At(far+5, record(5)) // same instant as label 4, scheduled later
	e.At(200, record(2))
	if end := e.Run(); end != far+5 {
		t.Fatalf("run ended at %v, want %v", end, far+5)
	}
	for i, want := range []int{1, 2, 3, 4, 5} {
		if fired[i] != want {
			t.Fatalf("firing order %v, want [1 2 3 4 5]", fired)
		}
	}
}

// TestRunUntilCursorDoesNotOvershoot pins that stopping at a deadline in
// an empty region leaves the engine able to accept and fire events
// scheduled between the deadline and the next far-future pending event.
// (It began as the regression test for the timer wheel's cursor, which
// must never advance past the deadline.)
func TestRunUntilCursorDoesNotOvershoot(t *testing.T) {
	e := New()
	var fired []int
	// One event far in the future, several levels above the deadline.
	e.At(1<<40, func(*Engine) { fired = append(fired, 2) })
	if now := e.RunUntil(1 << 20); now != 1<<20 {
		t.Fatalf("RunUntil ended at %v, want %v", now, Time(1)<<20)
	}
	// Scheduling between the deadline and the pending event must work and
	// fire first; an engine whose internal position ran past the deadline
	// would either panic or fire out of order.
	e.At(1<<30, func(*Engine) { fired = append(fired, 1) })
	e.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired %v, want [1 2]", fired)
	}
}

// TestRunUntilOverflowBoundary checks that a far-future event (≥ 2^48 ns,
// once the timer wheel's overflow tier) exactly at the deadline fires,
// and one past it stays pending.
func TestRunUntilOverflowBoundary(t *testing.T) {
	e := New()
	far := Time(1) << 50
	var fired int
	e.At(far, func(*Engine) { fired++ })
	e.At(far+1, func(*Engine) { fired++ })
	e.RunUntil(far)
	if fired != 1 || e.Pending() != 1 {
		t.Fatalf("fired=%d pending=%d at deadline, want 1 and 1", fired, e.Pending())
	}
	e.Run()
	if fired != 2 {
		t.Errorf("fired=%d after drain, want 2", fired)
	}
}

// TestWheelReschedulingAllocFree pins the free-list contract: a steady
// schedule→fire→reschedule loop (the RTO-timer pattern) performs zero
// heap allocations once warmed up, and so does canceling an event from
// the middle of a queue at packet depth and scheduling it again.
func TestWheelReschedulingAllocFree(t *testing.T) {
	e := New()
	tick := 0
	var tm *Timer
	tm = NewTimer(e, func(*Engine) {
		tick++
		if tick < 1000 {
			tm.Reset(Millisecond)
		}
	})
	tm.Reset(Millisecond) // warm the pool
	allocs := testing.AllocsPerRun(1, func() {
		e.Run()
		tick = 0
		tm.Reset(Millisecond)
	})
	// One Run executes 1000 timer fires and 999 reschedules; anything
	// beyond a stray allocation means the pool is not being reused.
	if allocs > 1 {
		t.Errorf("rescheduling loop allocated %v times per run, want ~0", allocs)
	}

	// Cancel from the middle of a packetDepth-deep queue, scheduled out of
	// time order so the heap is not a sorted array: the remove refills the
	// hole from the heap's tail and sifts, reusing the slice.
	d := New()
	fn := Handler(func(*Engine) {})
	var ids [packetDepth]EventID
	at := func(k int) Time { return Time(k*5%packetDepth+1) * Microsecond }
	for k := range ids {
		ids[k] = d.At(at(k), fn)
	}
	mid := packetDepth / 2
	allocs = testing.AllocsPerRun(100, func() {
		if !d.Cancel(ids[mid]) {
			t.Fatal("Cancel of a queued event reported false")
		}
		ids[mid] = d.At(at(mid), fn)
	})
	if allocs != 0 {
		t.Errorf("mid-queue Cancel allocated %v times per run, want 0", allocs)
	}
	if d.Pending() != packetDepth {
		t.Errorf("Pending = %d after cancel/re-arm cycles, want %d", d.Pending(), packetDepth)
	}
}
