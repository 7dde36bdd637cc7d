// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock measured in integer nanoseconds and a
// binary min-heap of scheduled events keyed on (time, insertion sequence).
// Events scheduled for the same instant fire in the order they were
// scheduled, which makes runs reproducible regardless of map iteration
// order or goroutine scheduling. Nothing in this package (or in any
// simulation code built on it) reads the wall clock.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in simulated time, in nanoseconds since the start of the
// simulation. It is a distinct type from time.Duration to prevent mixing
// wall-clock durations into simulation arithmetic by accident.
type Time int64

// Common time constants mirroring the time package.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time. It is used as an
// "infinitely far" horizon for runs bounded only by event exhaustion.
const MaxTime = Time(math.MaxInt64)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration of the same nanosecond count.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromDuration converts a time.Duration to a simulation Time span.
func FromDuration(d time.Duration) Time { return Time(d.Nanoseconds()) }

// FromSeconds converts a floating-point number of seconds to a Time,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Scale returns t multiplied by the dimensionless factor k, truncating
// toward zero. It is the canonical way to scale a duration by a float
// (duty cycles, jitter factors) without open-coding Time(float64(t)*k).
func (t Time) Scale(k float64) Time { return Time(float64(t) * k) }

// Div returns t divided by the dimensionless divisor k, truncating
// toward zero.
func (t Time) Div(k float64) Time { return Time(float64(t) / k) }

// Ratio returns the dimensionless ratio num/den in full float precision.
// Use it instead of float64(num)/float64(den) or the truncating integer
// division num/den when a fractional ratio of two durations is wanted.
func Ratio(num, den Time) float64 { return float64(num) / float64(den) }

// String formats t like a time.Duration ("1.5s", "250µs", ...).
func (t Time) String() string { return time.Duration(t).String() }

// Handler is the callback invoked when an event fires. It receives the
// engine so it can schedule follow-up events.
type Handler func(e *Engine)

// EventHandler is the allocation-free alternative to Handler: a pre-bound
// struct (a timer, a link's delivery record) schedules itself with
// AtHandler/AfterHandler and is invoked by pointer, so rescheduling the
// same object allocates nothing. Hot paths prefer it over closures.
type EventHandler interface {
	HandleEvent(e *Engine)
}

// event is a free-listed queue node. The engine owns a private pool of
// them; steady-state schedule/cancel/reschedule traffic allocates nothing.
// Its firing time and sequence number live inline in its queue entry, so
// sift comparisons never dereference an event.
type event struct {
	fn   Handler
	h    EventHandler
	next *event // free-list link
	gen  uint64 // bumped on every release; stale EventIDs can never cancel a reused node
	idx  int32  // position in Engine.q while queued, -1 while free
}

// qent is one event-queue entry: the event's (at, seq) key, inline, and
// the event it orders.
type qent struct {
	at  Time
	seq uint64 // insertion order; breaks same-instant ties deterministically
	ev  *event
}

// before reports whether a fires before b: earlier time first, FIFO among
// events at the same instant.
//
//mltcp:hot
func (a qent) before(b qent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// EventID identifies a scheduled event so it can be canceled. The zero
// EventID is invalid and safe to Cancel (a no-op). IDs are generation-
// checked: once the event fires or is canceled, the ID goes stale and
// can never affect a later event that reuses the same pooled node.
type EventID struct {
	ev  *event
	gen uint64
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Scheduled events wait in one binary min-heap ordered by (at, seq); each
// queued event records its heap position, so Cancel is an O(log n) remove.
//
// Firing an event does not pop it first. Its entry stays at q[0] as a
// hole while the handler runs, and the handler's first schedule drops
// the new entry into the hole and sifts it down once, instead of a
// sift-down for the pop and a sift-up for the push. A handler that
// schedules nothing has the hole removed after it returns. The hole keeps
// the smallest key in the heap (every later key is larger), so sifts and
// Cancel never move an entry into it, and the firing order is the (at,
// seq) order either way.
type Engine struct {
	now     Time
	seq     uint64
	stopped bool
	hole    bool // q[0] is the firing event's dead entry
	fired   uint64

	q    []qent
	free *event
}

// New returns a ready-to-run Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are currently scheduled. Inside a
// handler the firing event is no longer pending.
func (e *Engine) Pending() int {
	if e.hole {
		return len(e.q) - 1
	}
	return len(e.q)
}

//mltcp:hot
func (e *Engine) alloc() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

//mltcp:hot
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.h = nil
	ev.idx = -1
	ev.next = e.free
	e.free = ev
}

// schedule queues ev to fire at t, after every event already queued for t.
// Inside a handler the first call fills the firing event's hole.
//
//mltcp:hot
func (e *Engine) schedule(t Time, ev *event) {
	if e.hole {
		e.hole = false
		e.q[0] = qent{at: t, seq: e.seq, ev: ev}
		e.seq++
		e.down(0)
		return
	}
	i := len(e.q)
	e.q = append(e.q, qent{at: t, seq: e.seq, ev: ev})
	e.seq++
	e.up(i)
}

// up sifts the entry at i toward the root until its parent fires first.
//
//mltcp:hot
func (e *Engine) up(i int) {
	q := e.q
	x := q[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(q[p]) {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = int32(i)
		i = p
	}
	q[i] = x
	x.ev.idx = int32(i)
}

// down sifts the entry at i toward the leaves until both children fire
// after it, and reports whether it moved.
//
//mltcp:hot
func (e *Engine) down(i int) bool {
	q := e.q
	n := len(q)
	x := q[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		q[i].ev.idx = int32(i)
		i = c
	}
	q[i] = x
	x.ev.idx = int32(i)
	return i > i0
}

// remove deletes the entry at i, refilling the hole with the last entry.
//
//mltcp:hot
func (e *Engine) remove(i int) {
	n := len(e.q) - 1
	last := e.q[n]
	e.q = e.q[:n]
	if i == n {
		return
	}
	e.q[i] = last
	if !e.down(i) {
		e.up(i)
	}
}

// closeHole removes the firing event's dead entry if no schedule filled
// it. A handler that panicked leaves the hole open, so RunUntil and Step
// close it before their first pop too.
//
//mltcp:hot
func (e *Engine) closeHole() {
	if e.hole {
		e.hole = false
		e.remove(0)
	}
}

// fire runs the earliest queued event, leaving its entry at q[0] as the
// hole while the handler runs.
//
//mltcp:hot
func (e *Engine) fire() {
	top := e.q[0]
	ev := top.ev
	e.now = top.at
	e.fired++
	fn, h := ev.fn, ev.h
	e.release(ev)
	e.hole = true
	if h != nil {
		h.HandleEvent(e)
	} else {
		fn(e)
	}
	e.closeHole()
}

// panicPast and panicNegative hold the panic formatting — whose fmt
// arguments box — outside the //mltcp:hot scheduling bodies.
func (e *Engine) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
}

func panicNegative(d Time) {
	panic(fmt.Sprintf("sim: negative delay %v", d))
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) panics: it always indicates a logic error in simulation code, and
// silently clamping would hide causality violations.
//
//mltcp:hot
func (e *Engine) At(t Time, fn Handler) EventID {
	if t < e.now {
		e.panicPast(t)
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := e.alloc()
	ev.fn = fn
	e.schedule(t, ev)
	return EventID{ev, ev.gen}
}

// After schedules fn to run d after the current time.
//
//mltcp:hot
func (e *Engine) After(d Time, fn Handler) EventID {
	if d < 0 {
		panicNegative(d)
	}
	return e.At(e.now+d, fn)
}

// AtHandler schedules h to run at absolute time t. It is the
// allocation-free counterpart of At for pre-bound handler objects.
//
//mltcp:hot
func (e *Engine) AtHandler(t Time, h EventHandler) EventID {
	if t < e.now {
		e.panicPast(t)
	}
	if h == nil {
		panic("sim: scheduling nil handler")
	}
	ev := e.alloc()
	ev.h = h
	e.schedule(t, ev)
	return EventID{ev, ev.gen}
}

// AfterHandler schedules h to run d after the current time.
//
//mltcp:hot
func (e *Engine) AfterHandler(d Time, h EventHandler) EventID {
	if d < 0 {
		panicNegative(d)
	}
	return e.AtHandler(e.now+d, h)
}

// Cancel removes a scheduled event. Canceling an already-fired, already-
// canceled, or zero EventID is a no-op. It reports whether the event was
// actually pending.
//
//mltcp:hot
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen {
		return false
	}
	e.remove(int(ev.idx))
	e.release(ev)
	return true
}

// Stop halts Run/RunUntil after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final simulation time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with firing time <= deadline, in timestamp order.
// When it returns, Now is the deadline (if reached) or the time of the last
// event executed before Stop. Events scheduled beyond the deadline remain
// pending, so the simulation can be resumed with a later deadline.
//
//mltcp:hot
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	e.closeHole()
	for !e.stopped && len(e.q) > 0 && e.q[0].at <= deadline {
		e.fire()
	}
	if !e.stopped && deadline != MaxTime && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Step executes exactly one pending event and reports whether an event was
// executed.
//
//mltcp:hot
func (e *Engine) Step() bool {
	e.closeHole()
	if len(e.q) == 0 {
		return false
	}
	e.fire()
	return true
}
