package sim

// Differential testing of the engine's inline-key event heap against a
// frozen container/heap engine. The two implementations are driven in
// lockstep through randomized schedule/cancel/step/run-until op streams;
// they must agree on the execution order of every event (the (at, seq)
// FIFO contract), on Now, and on Pending() after every step, and the
// engine's queue must satisfy checkQueue after every operation.

import (
	"container/heap"
	"fmt"
	"testing"
)

// legacyEngine is a frozen copy of the original container/heap engine,
// with tombstoned cancels and pointer-keyed entries. It exists only as
// the differential-test oracle; production code uses Engine.
type legacyEngine struct {
	now     Time
	seq     uint64
	heap    legacyHeap
	stopped bool
	fired   uint64
}

type legacyEvent struct {
	at   Time
	seq  uint64
	fn   func(*legacyEngine)
	idx  int
	dead bool
}

type legacyHeap []*legacyEvent

func (h legacyHeap) Len() int { return len(h) }
func (h legacyHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h legacyHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *legacyHeap) Push(x any) {
	ev := x.(*legacyEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *legacyHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

func (e *legacyEngine) Now() Time     { return e.now }
func (e *legacyEngine) Pending() int  { return len(e.heap) }
func (e *legacyEngine) Stop()         { e.stopped = true }
func (e *legacyEngine) Fired() uint64 { return e.fired }

func (e *legacyEngine) At(t Time, fn func(*legacyEngine)) *legacyEvent {
	if t < e.now {
		panic(fmt.Sprintf("legacy: scheduling event at %v before now %v", t, e.now))
	}
	ev := &legacyEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.heap, ev)
	return ev
}

func (e *legacyEngine) Cancel(ev *legacyEvent) bool {
	if ev == nil || ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	heap.Remove(&e.heap, ev.idx)
	return true
}

func (e *legacyEngine) RunUntil(deadline Time) Time {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		ev := e.heap[0]
		if ev.at > deadline {
			break
		}
		heap.Pop(&e.heap)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn(e)
	}
	if !e.stopped && deadline != MaxTime && e.now < deadline {
		e.now = deadline
	}
	return e.now
}

func (e *legacyEngine) Step() bool {
	for len(e.heap) > 0 {
		ev := heap.Pop(&e.heap).(*legacyEvent)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn(e)
		return true
	}
	return false
}

// diffHarness drives the engine and the legacy oracle in lockstep and
// checks every observable after every operation. Handlers act too: a
// fired event may schedule 0, 1 or 2 children (delay 0 included), cancel
// an outstanding event before or after its first schedule, and call
// Stop, all drawn from its label so both engines do the same thing. On
// the engine that first schedule fills the firing event's hole, so these
// handlers drive every hole path. Each side logs what its handlers see
// (firing order, Now, Pending, Cancel results), and the logs must match.
type diffHarness struct {
	t    *testing.T
	salt uint64 // varies the handlers' draws between trials

	eng    *Engine
	legacy *legacyEngine
	e, l   *diffSide
	// checked is how many log entries both sides have already matched.
	checked int

	cov holeCoverage
}

// diffSide is one engine's view: its log, its label counter and its
// outstanding-event table. Index i of both sides' cancels is the same
// logical event, and labels stay in lockstep because both engines fire
// the same events in the same order.
type diffSide struct {
	log      []logEntry
	next     int
	cancels  []func() bool
	now      func() Time
	pending  func() int
	schedule func(delay Time, fire func()) (cancel func() bool)
	stop     func()
	check    func(where string)
}

// logEntry is one handler observation: 'f' (label, Now) on firing, 'p'
// (Pending) on entry and after the handler's actions, 'c' (table index,
// result) on a Cancel.
type logEntry struct {
	kind byte
	a, b int64
}

// holeCoverage counts, on the engine side, which handler paths ran, so
// the tests can require that every one of them was reached.
type holeCoverage struct {
	children     [3]int // firings by number of children scheduled
	zeroDelay    int    // children scheduled at delay 0
	cancelBefore int    // Cancels made before the first schedule
	cancelAfter  int    // Cancels made after it (the hole already filled)
	cancelHits   int    // handler Cancels that found a pending event
	stops        int
}

func (c holeCoverage) missing() []string {
	var m []string
	for n, k := range c.children {
		if k == 0 {
			m = append(m, fmt.Sprintf("%d children", n))
		}
	}
	for _, x := range []struct {
		name string
		n    int
	}{
		{"delay-0 child", c.zeroDelay},
		{"cancel before first schedule", c.cancelBefore},
		{"cancel after first schedule", c.cancelAfter},
		{"handler cancel of a pending event", c.cancelHits},
		{"stop", c.stops},
	} {
		if x.n == 0 {
			m = append(m, x.name)
		}
	}
	return m
}

func newDiffHarness(t *testing.T, salt uint64) *diffHarness {
	h := &diffHarness{t: t, salt: salt, eng: New(), legacy: &legacyEngine{}}
	h.e = &diffSide{
		now:     h.eng.Now,
		pending: h.eng.Pending,
		schedule: func(d Time, fire func()) func() bool {
			id := h.eng.After(d, func(*Engine) { fire() })
			return func() bool { return h.eng.Cancel(id) }
		},
		stop: h.eng.Stop,
		check: func(where string) {
			t.Helper()
			if err := checkQueue(h.eng); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		},
	}
	h.l = &diffSide{
		now:     h.legacy.Now,
		pending: h.legacy.Pending,
		schedule: func(d Time, fire func()) func() bool {
			ev := h.legacy.At(h.legacy.Now()+d, func(*legacyEngine) { fire() })
			return func() bool { return h.legacy.Cancel(ev) }
		},
		stop:  h.legacy.Stop,
		check: func(string) {},
	}
	return h
}

// hooks is what one firing does.
type hooks struct {
	children []Time
	cancel   int  // outstanding-table index (mod its length) to cancel, or -1
	late     bool // cancel after the first child is scheduled
	stop     bool
}

// hooksFor draws a firing's actions from its label alone, so both
// engines draw the same. depth bounds the generations still allowed to
// have children.
func (h *diffHarness) hooksFor(label, depth int) hooks {
	r := NewRNG(h.salt ^ (uint64(label)+1)*0x9e3779b97f4a7c15)
	k := hooks{cancel: -1}
	if depth > 0 {
		for n := r.Intn(3); n > 0; n-- {
			d := Time(0) // fires behind every entry already queued for now
			if r.Intn(3) > 0 {
				d = delayFor(r)
			}
			k.children = append(k.children, d)
		}
	}
	switch r.Intn(4) {
	case 1:
		k.cancel = r.Intn(1 << 20)
	case 2:
		k.cancel, k.late = r.Intn(1<<20), true
	}
	k.stop = r.Intn(10) == 0
	return k
}

// spawn schedules one logical event on side s and registers it in the
// outstanding table.
func (h *diffHarness) spawn(s *diffSide, delay Time, depth int) {
	label := s.next
	s.next++
	s.cancels = append(s.cancels, s.schedule(delay, func() { h.fire(s, label, depth) }))
}

// fire is every event's handler: it logs, checks the queue with the hole
// open, and runs the label's hooks, checking the queue after each step.
func (h *diffHarness) fire(s *diffSide, label, depth int) {
	s.log = append(s.log, logEntry{'f', int64(label), int64(s.now())}, logEntry{'p', int64(s.pending()), 0})
	s.check("handler entry")
	k := h.hooksFor(label, depth)
	cancel := func() {
		j := k.cancel % len(s.cancels)
		ok := s.cancels[j]()
		s.log = append(s.log, logEntry{'c', int64(j), boolInt(ok)})
		s.check("handler cancel")
		if s == h.e {
			if k.late {
				h.cov.cancelAfter++
			} else {
				h.cov.cancelBefore++
			}
			h.cov.cancelHits += int(boolInt(ok))
		}
	}
	if k.cancel >= 0 && !k.late {
		cancel()
	}
	for i, d := range k.children {
		h.spawn(s, d, depth-1)
		s.check("handler schedule")
		if i == 0 && k.cancel >= 0 && k.late {
			cancel()
		}
	}
	if k.cancel >= 0 && k.late && len(k.children) == 0 {
		cancel()
	}
	if k.stop {
		s.stop()
	}
	s.log = append(s.log, logEntry{'p', int64(s.pending()), 0})
	if s == h.e {
		h.cov.children[len(k.children)]++
		for _, d := range k.children {
			if d == 0 {
				h.cov.zeroDelay++
			}
		}
		h.cov.stops += int(boolInt(k.stop))
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// schedule registers the same event, allowed depth generations of
// children, in both engines.
func (h *diffHarness) schedule(delay Time, depth int) {
	h.spawn(h.e, delay, depth)
	h.spawn(h.l, delay, depth)
	h.check("schedule")
}

func (h *diffHarness) cancel(i int) {
	if len(h.e.cancels) == 0 {
		return
	}
	i %= len(h.e.cancels)
	eg := h.e.cancels[i]()
	lg := h.l.cancels[i]()
	if eg != lg {
		h.t.Fatalf("Cancel(#%d): engine=%v legacy=%v", i, eg, lg)
	}
	h.check("cancel")
}

func (h *diffHarness) step() {
	eg := h.eng.Step()
	lg := h.legacy.Step()
	if eg != lg {
		h.t.Fatalf("Step: engine=%v legacy=%v", eg, lg)
	}
	h.check("step")
}

func (h *diffHarness) runUntil(delta Time) {
	deadline := h.eng.Now() + delta
	h.eng.RunUntil(deadline)
	h.legacy.RunUntil(deadline)
	h.check("runUntil")
}

func (h *diffHarness) drain() {
	// Drain via single steps so Pending is compared at every event
	// boundary, then confirm both report empty.
	for h.eng.Step() {
		if !h.legacy.Step() {
			h.t.Fatal("legacy drained before engine")
		}
		h.check("drain")
	}
	if h.legacy.Step() {
		h.t.Fatal("engine drained before legacy")
	}
	h.check("drained")
}

func (h *diffHarness) check(op string) {
	h.t.Helper()
	if h.eng.Now() != h.legacy.Now() {
		h.t.Fatalf("%s: Now diverged: engine=%v legacy=%v", op, h.eng.Now(), h.legacy.Now())
	}
	if h.eng.Pending() != h.legacy.Pending() {
		h.t.Fatalf("%s: Pending diverged: engine=%d legacy=%d", op, h.eng.Pending(), h.legacy.Pending())
	}
	el, ll := h.e.log, h.l.log
	if len(el) != len(ll) {
		h.t.Fatalf("%s: logged %d (engine) vs %d (legacy) handler observations", op, len(el), len(ll))
	}
	for i := h.checked; i < len(el); i++ {
		if el[i] != ll[i] {
			h.t.Fatalf("%s: handler log diverged at %d: engine=%+v legacy=%+v", op, i, el[i], ll[i])
		}
	}
	h.checked = len(el)
	h.e.check(op)
}

// checkQueue verifies the engine's heap invariants: every entry fires no
// earlier, on (at, seq), than its parent; every queued event's back-index
// names its own slot; and no queued event sits on the free list. Free
// events carry index -1 and queued ones their slot, so checking both
// lists' indices proves them disjoint without a set. Inside a handler
// q[0] may be the firing event's hole: its event is already released,
// so its back-index is skipped, but its key still orders its children.
func checkQueue(e *Engine) error {
	if e.hole && len(e.q) == 0 {
		return fmt.Errorf("hole open on an empty queue")
	}
	var n uint64
	for ev := e.free; ev != nil; ev = ev.next {
		if ev.idx != -1 {
			return fmt.Errorf("free event has queue index %d", ev.idx)
		}
		// Each pooled event was allocated by some schedule call, so a
		// longer free list must contain a cycle.
		if n++; n > e.seq {
			return fmt.Errorf("free list longer than the %d events ever scheduled", e.seq)
		}
	}
	for i, x := range e.q {
		if p := (i - 1) / 2; i > 0 && x.before(e.q[p]) {
			return fmt.Errorf("q[%d] (at=%v seq=%d) fires before its parent q[%d] (at=%v seq=%d)",
				i, x.at, x.seq, p, e.q[p].at, e.q[p].seq)
		}
		if i == 0 && e.hole {
			continue
		}
		if int(x.ev.idx) != i {
			return fmt.Errorf("q[%d].ev.idx = %d", i, x.ev.idx)
		}
	}
	return nil
}

// delayFor maps a raw random value onto a delay distribution spanning
// eight orders of magnitude: exact duplicates (FIFO ties), spans of 2^8
// through 2^47 ns, and times beyond 2^48 ns (the horizon where a timer
// wheel would hand off to an overflow tier). Mixing near and far entries
// makes removals sift both up and down the full heap depth.
func delayFor(r *RNG) Time {
	switch r.Intn(8) {
	case 0:
		return 0 // same-instant FIFO ties
	case 1:
		return Time(r.Intn(256))
	case 2:
		return Time(r.Intn(1 << 16))
	case 3:
		return Time(r.Intn(1 << 24))
	case 4:
		return Time(r.Intn(1 << 32))
	case 5:
		return Time(r.Intn(1 << 40))
	case 6:
		return Time(r.Intn(1 << 47))
	default:
		return Time(1)<<48 + Time(r.Intn(1<<50)) // far future
	}
}

// TestDifferentialRandomSchedules drives many independent randomized op
// streams through both engines, and requires that the handlers reached
// every hole path between them.
func TestDifferentialRandomSchedules(t *testing.T) {
	var cov holeCoverage
	for trial := 0; trial < 50; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := uint64(trial)*0x9e3779b97f4a7c15 + 1
			r := NewRNG(seed)
			h := newDiffHarness(t, seed)
			for op := 0; op < 200; op++ {
				switch r.Intn(10) {
				case 0, 1, 2, 3: // schedule-heavy mix
					depth := 0
					if r.Intn(4) == 0 {
						depth = 1 + r.Intn(3)
					}
					h.schedule(delayFor(r), depth)
				case 4, 5:
					h.cancel(r.Intn(1 << 20))
				case 6, 7:
					h.step()
				default:
					h.runUntil(delayFor(r))
				}
			}
			h.drain()
			cov.add(h.cov)
		})
	}
	if m := cov.missing(); len(m) > 0 {
		t.Errorf("handlers never reached: %v", m)
	}
}

func (c *holeCoverage) add(o holeCoverage) {
	for i := range c.children {
		c.children[i] += o.children[i]
	}
	c.zeroDelay += o.zeroDelay
	c.cancelBefore += o.cancelBefore
	c.cancelAfter += o.cancelAfter
	c.cancelHits += o.cancelHits
	c.stops += o.stops
}

// engineFuzzSeeds is FuzzEngineDifferential's seed corpus. Each byte is
// one op: the top 2 bits select schedule, cancel, step or run-until, and
// the low 6 bits seed the op's draws (a schedule's depth is b%4).
var engineFuzzSeeds = [][]byte{
	{0x00, 0x01, 0x42, 0x83, 0xc4, 0x05, 0x46, 0x87, 0xff},
	{0x10, 0x10, 0x10, 0x50, 0x90, 0xd0},       // same-time ties, cancel, step, run
	{0x07, 0x17, 0x27, 0x37, 0xc0, 0xc0, 0xc0}, // far-future times
	{0x01, 0x41, 0x81, 0xc1, 0x02, 0x42, 0x82}, // interleaved schedule/cancel/step
	// Three-generation families: handlers schedule 0-2 children (delay
	// 0 included), cancel before and after filling the hole, and stop.
	{0x03, 0x0b, 0x13, 0x1b, 0x23, 0x2b, 0x33, 0x3b, 0xff, 0xff, 0xff},
	{0x07, 0x0f, 0x17, 0x45, 0x1f, 0xbf, 0x27, 0x2f, 0x49, 0xbf, 0xc3, 0x37, 0xff},
}

// runEngineFuzzInput replays one fuzz input through both engines.
func runEngineFuzzInput(t *testing.T, data []byte) holeCoverage {
	h := newDiffHarness(t, 0)
	for i, b := range data {
		r := NewRNG(uint64(b&0x3f)*0x9e3779b97f4a7c15 + uint64(i))
		switch b >> 6 {
		case 0:
			h.schedule(delayFor(r), int(b)%4)
		case 1:
			h.cancel(int(b & 0x3f))
		case 2:
			h.step()
		default:
			h.runUntil(delayFor(r))
		}
	}
	h.drain()
	return h.cov
}

// TestEngineFuzzSeedsReachHolePaths requires the fuzz seed corpus alone
// to reach every hole path, so a short -fuzz run starts from inputs that
// already cover them.
func TestEngineFuzzSeedsReachHolePaths(t *testing.T) {
	var cov holeCoverage
	for _, data := range engineFuzzSeeds {
		cov.add(runEngineFuzzInput(t, data))
	}
	if m := cov.missing(); len(m) > 0 {
		t.Errorf("fuzz seeds never reach: %v (coverage %+v)", m, cov)
	}
}

// FuzzEngineDifferential interprets the fuzz input as an op stream and
// replays it through both engines. go test runs the seed corpus; `go test
// -fuzz=FuzzEngineDifferential ./internal/sim` explores further.
func FuzzEngineDifferential(f *testing.F) {
	for _, data := range engineFuzzSeeds {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip("op stream too long")
		}
		runEngineFuzzInput(t, data)
	})
}
