package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Errorf("(2s).Seconds() = %v, want 2", got)
	}
	if got := FromDuration(3 * time.Millisecond); got != 3*Millisecond {
		t.Errorf("FromDuration(3ms) = %v", got)
	}
	if got := (250 * Microsecond).Duration(); got != 250*time.Microsecond {
		t.Errorf("Duration() = %v", got)
	}
	if s := (1500 * Millisecond).String(); s != "1.5s" {
		t.Errorf("String() = %q, want 1.5s", s)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func(*Engine) { got = append(got, 3) })
	e.At(10, func(*Engine) { got = append(got, 1) })
	e.At(20, func(*Engine) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order at %d: %v", i, v)
		}
	}
}

// TestEngineCascade chains ten self-rescheduling events 1 ms apart and
// checks the count and the final clock. The name dates from the timer
// wheel the event heap replaced, where each hop cascaded down its levels.
func TestEngineCascade(t *testing.T) {
	e := New()
	count := 0
	var step Handler
	step = func(en *Engine) {
		count++
		if count < 10 {
			en.After(Millisecond, step)
		}
	}
	e.At(0, step)
	e.Run()
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 9*Millisecond {
		t.Errorf("Now() = %v, want 9ms", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func(*Engine) { fired++ })
	e.At(20, func(*Engine) { fired++ })
	e.At(30, func(*Engine) { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %v, want 20", e.Now())
	}
	// Resume: remaining event still pending.
	e.RunUntil(100)
	if fired != 3 {
		t.Errorf("after resume fired = %d, want 3", fired)
	}
	if e.Now() != 100 {
		t.Errorf("Now() advanced to %v, want deadline 100", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := New()
	fired := false
	id := e.At(10, func(*Engine) { fired = true })
	if !e.Cancel(id) {
		t.Error("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Error("second Cancel returned true")
	}
	if e.Cancel(EventID{}) {
		t.Error("Cancel of zero EventID returned true")
	}
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
}

func TestEngineStop(t *testing.T) {
	e := New()
	fired := 0
	e.At(10, func(en *Engine) { fired++; en.Stop() })
	e.At(20, func(*Engine) { fired++ })
	e.Run()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (Stop should halt)", fired)
	}
	// Run again resumes.
	e.Run()
	if fired != 2 {
		t.Errorf("after resume fired = %d, want 2", fired)
	}
}

func TestEngineStep(t *testing.T) {
	e := New()
	fired := 0
	e.At(5, func(*Engine) { fired++ })
	e.At(7, func(*Engine) { fired++ })
	if !e.Step() || fired != 1 || e.Now() != 5 {
		t.Fatalf("first Step: fired=%d now=%v", fired, e.Now())
	}
	if !e.Step() || fired != 2 || e.Now() != 7 {
		t.Fatalf("second Step: fired=%d now=%v", fired, e.Now())
	}
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestEngineUsableAfterHandlerPanic pins that a handler panic recovered
// outside the engine leaves it consistent: the panicking event's hole is
// closed by the next run, and the remaining events fire in order.
func TestEngineUsableAfterHandlerPanic(t *testing.T) {
	e := New()
	var got []int
	e.At(1, func(*Engine) { panic("boom") })
	e.At(2, func(*Engine) { got = append(got, 2) })
	e.At(3, func(*Engine) { got = append(got, 3) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("handler panic was swallowed")
			}
		}()
		e.Run()
	}()
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after the panic, want 2", e.Pending())
	}
	e.Run()
	if fmt.Sprint(got) != "[2 3]" || e.Pending() != 0 || e.Fired() != 3 {
		t.Fatalf("after resuming: fired %v, Pending %d, Fired %d", got, e.Pending(), e.Fired())
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(100, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(50, func(*Engine) {})
	})
	e.Run()
}

func TestEngineNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	New().At(0, nil)
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New().After(-1, func(*Engine) {})
}

// Property: events always fire in nondecreasing time order, whatever the
// scheduling pattern.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := New()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.At(Time(d), func(en *Engine) {
				if en.Now() < last {
					ok = false
				}
				last = en.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := New()
	fired := 0
	tm := NewTimer(e, func(*Engine) { fired++ })
	tm.Reset(10)
	tm.Reset(50) // supersedes the 10ns expiry
	e.RunUntil(20)
	if fired != 0 {
		t.Fatalf("timer fired at old deadline")
	}
	if !tm.Armed() || tm.Expiry() != 50 {
		t.Fatalf("armed=%v expiry=%v, want armed at 50", tm.Armed(), tm.Expiry())
	}
	e.RunUntil(60)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := 0
	tm := NewTimer(e, func(*Engine) { fired++ })
	tm.Reset(10)
	tm.Stop()
	tm.Stop() // no-op
	e.Run()
	if fired != 0 {
		t.Errorf("stopped timer fired")
	}
	// Re-arm after stop works.
	tm.Reset(5)
	e.Run()
	if fired != 1 {
		t.Errorf("re-armed timer did not fire")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(1)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if variance < 0.97 || variance > 1.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestRNGNormDurationClamp(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.NormDuration(10, 100, 0)
		if v < 0 {
			t.Fatalf("NormDuration below clamp: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) over 1000 draws hit %d values, want 10", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(11)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() && f1.Uint64() == f2.Uint64() {
		t.Error("forked streams identical")
	}
}

func TestTimeScaleDivRatio(t *testing.T) {
	t.Parallel()
	// Scale/Div are the canonical forms of the open-coded float scaling
	// they replaced; they must match it bit for bit so golden traces
	// recorded before the refactor still replay byte-identically.
	cases := []struct {
		d Time
		k float64
	}{
		{1800 * Millisecond, 0.72},
		{1800 * Millisecond, 1.0},
		{Second, 1.0 / 3},
		{-250 * Microsecond, 0.5},
		{7 * Nanosecond, 0.1},
	}
	for _, c := range cases {
		if got, want := c.d.Scale(c.k), Time(float64(c.d)*c.k); got != want {
			t.Errorf("(%v).Scale(%v) = %v, want %v", c.d, c.k, got, want)
		}
		if got, want := c.d.Div(c.k), Time(float64(c.d)/c.k); got != want {
			t.Errorf("(%v).Div(%v) = %v, want %v", c.d, c.k, got, want)
		}
	}
	if got := Ratio(450*Millisecond, 1800*Millisecond); got != 0.25 {
		t.Errorf("Ratio(450ms, 1800ms) = %v, want 0.25", got)
	}
	// Ratio keeps fractional precision where integer division truncates.
	if got := Ratio(Second, 3*Second); got == 0 {
		t.Error("Ratio(1s, 3s) truncated to 0")
	}
}

func TestTimeScaleTruncatesTowardZero(t *testing.T) {
	t.Parallel()
	if got := Time(10).Scale(0.39); got != 3 {
		t.Errorf("Time(10).Scale(0.39) = %v, want 3 (truncation, not rounding)", got)
	}
	if got := Time(-10).Scale(0.39); got != -3 {
		t.Errorf("Time(-10).Scale(0.39) = %v, want -3 (truncation toward zero)", got)
	}
}
