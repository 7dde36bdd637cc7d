package sim

import "testing"

// Micro-benchmarks for the event-queue engine's hot operations. Run with
//
//	go test -bench=Engine -benchmem ./internal/sim
//
// Steady-state schedule/cancel/reschedule must report 0 allocs/op: the
// free list absorbs all event traffic once warmed.

// BenchmarkEngineScheduleDrain measures the schedule-then-fire cycle for a
// batch of 64 events 17 ns apart that drain in order.
func BenchmarkEngineScheduleDrain(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	for i := 0; i < b.N; i++ {
		for k := Time(0); k < 64; k++ {
			e.After(k*17, fn)
		}
		e.Run()
	}
}

// BenchmarkEngineCancel measures schedule+cancel churn — the RTO-timer
// pattern where almost every scheduled event is canceled before firing.
func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	var ids [64]EventID
	for i := 0; i < b.N; i++ {
		for k := range ids {
			ids[k] = e.After(Time(k+1)*1000, fn)
		}
		for k := range ids {
			e.Cancel(ids[k])
		}
	}
}

// BenchmarkEngineReschedule measures the Timer Reset loop: one pooled
// event canceled and re-armed per fire, zero allocations in steady state.
func BenchmarkEngineReschedule(b *testing.B) {
	e := New()
	n := 0
	var tm *Timer
	tm = NewTimer(e, func(*Engine) {
		n++
		if n < b.N {
			tm.Reset(Millisecond)
		}
	})
	b.ResetTimer()
	tm.Reset(Millisecond)
	e.Run()
}

// BenchmarkEngineCascade is the far-spread case: 256 events scattered
// over 2^44 ns (~4.9 simulated hours), so nearly every entry lands far
// from its neighbours. The name dates from the hierarchical timer wheel
// the heap replaced, where this spread made every pop cascade events
// down its levels.
func BenchmarkEngineCascade(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	r := NewRNG(1)
	delays := make([]Time, 256)
	for i := range delays {
		delays[i] = Time(r.Uint64() & (1<<44 - 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Now() > Time(1)<<60 {
			e = New() // keep now+delay clear of int64 overflow
		}
		for _, d := range delays {
			e.After(d, fn)
		}
		e.Run()
	}
}

// BenchmarkEngineSelfSchedule is the tightest possible event loop: one
// event rescheduling itself via a pre-bound handler. This bounds engine
// dispatch overhead per event.
func BenchmarkEngineSelfSchedule(b *testing.B) {
	e := New()
	n := 0
	var h selfScheduler
	h.fire = func(eng *Engine) {
		n++
		if n < b.N {
			eng.AfterHandler(1, &h)
		}
	}
	b.ResetTimer()
	e.AtHandler(0, &h)
	e.Run()
}

type selfScheduler struct{ fire Handler }

func (s *selfScheduler) HandleEvent(e *Engine) { s.fire(e) }

// BenchmarkEngineMixedHorizon mixes short, medium, and far-future events
// (up to 2^50 ns ahead), approximating a full simulation's spread of
// RTOs, pacing ticks, and iteration deadlines.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	e := New()
	fn := Handler(func(*Engine) {})
	r := NewRNG(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Now() > Time(1)<<60 {
			e = New() // keep now+delay clear of int64 overflow
		}
		for k := 0; k < 32; k++ {
			e.After(delayFor(r), fn)
		}
		e.Run()
	}
}

// packetDepth is the queue depth a packet-level run holds: perfbench
// reports sim.max_pending = 13 on packet-dumbbell.
const packetDepth = 13

// BenchmarkEnginePacketDepth runs the engine at packet depth: packetDepth
// pre-bound handlers (link deliveries, pacing ticks) re-arm themselves at
// distinct µs-scale delays, and every fire re-arms one shared RTO timer,
// so each op is one pop, one cancel and two schedules on a queue of
// packetDepth+1 events.
func BenchmarkEnginePacketDepth(b *testing.B) {
	e := New()
	rto := NewTimer(e, func(*Engine) {})
	var hs [packetDepth]rearmer
	n := 0
	for k := range hs {
		hs[k] = rearmer{delay: Time(k+1)*700*Nanosecond + Microsecond, n: &n, stop: b.N, rto: rto}
		e.AtHandler(Time(k)*100, &hs[k])
	}
	b.ResetTimer()
	e.Run()
}

type rearmer struct {
	delay Time
	n     *int
	stop  int
	rto   *Timer
}

func (r *rearmer) HandleEvent(e *Engine) {
	*r.n++
	if *r.n >= r.stop {
		r.rto.Stop()
		return
	}
	r.rto.Reset(Millisecond)
	e.AfterHandler(r.delay, r)
}
