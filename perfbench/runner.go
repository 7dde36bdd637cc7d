package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/harness"
	"mltcp/internal/learn"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
)

const (
	// setupReps is how many times a run builds its workload; setup_s is
	// the median, so one slow build does not set it.
	setupReps = 11
	// rotation is how many passes a pool takes: pass k runs the pool's
	// part k mod rotation. The first rotation passes run every scenario
	// once, which the cross-fidelity errors average over; later passes
	// repeat earlier ones exactly, which the output check verifies.
	rotation = 4
)

// runner drives one workload at one seed and checks every operation.
type runner struct {
	w    *workload
	seed uint64

	raw            [][]byte // generated scenario JSON
	scns           []*config.Scenario
	passLen        int // scenarios per pass: len(scns) / rotation
	exact, learned backend.Backend

	// Per pool entry: the first digests seen, the recorded reference (nil
	// unless seed is defaultSeed) and the first output.
	seen  digests
	ref   *digests
	first []opOut

	attempted, failed int
	problems          []string

	setupTr *tracer // spans of every set-up
}

func newRunner(w *workload, seed uint64, checkReference bool) (*runner, error) {
	r := &runner{w: w, seed: seed, setupTr: newTracer()}
	if checkReference && seed == defaultSeed {
		ref, err := reference(w.name)
		if err != nil {
			return nil, err
		}
		r.ref = &ref
	}
	return r, nil
}

// opSample is one checked operation of a pass. It keeps the operation's
// counts but not its Results, so a run's memory does not grow with its
// length.
type opSample struct {
	index, pass int // pool entry, pass number
	wall        time.Duration
	out         opOut
	simSec      float64 // simulated horizon covered
	delivered   int64   // bytes the jobs delivered
	// Allocation deltas around the operation, when the pass measures them.
	mallocs, allocBytes uint64
	gcs                 uint32
}

// setup builds the workload: generate the pool, load every scenario with
// config.Load, load the learned model and run the pool's first operation
// untimed. The returned wall is the set-up time.
func (r *runner) setup(ctx context.Context) (time.Duration, error) {
	tr := r.setupTr
	root := tr.begin("setup", -1)
	sp := tr.begin("experiments.generate", root)
	raw, err := r.w.generate(r.seed)
	tr.finish(sp)
	if err != nil {
		return 0, err
	}
	if r.raw != nil && !slices.EqualFunc(raw, r.raw, bytes.Equal) {
		return 0, fmt.Errorf("%s: the generator gave different scenarios for the same seed", r.w.name)
	}
	r.raw = raw
	sp = tr.begin("config.load", root)
	scns := make([]*config.Scenario, len(raw))
	for i, b := range raw {
		s, err := config.Load(bytes.NewReader(b))
		if err != nil {
			return 0, fmt.Errorf("%s scenario %d: %w", r.w.name, i, err)
		}
		scns[i] = &s
	}
	tr.finish(sp)
	sp = tr.begin("learn.model_load", root)
	_, err = learn.DefaultModel()
	tr.finish(sp)
	if err != nil {
		return 0, err
	}
	if r.exact, err = backend.New(r.w.backend); err != nil {
		return 0, err
	}
	if r.learned, err = backend.New(backend.NameLearned); err != nil {
		return 0, err
	}
	if len(scns)%rotation != 0 {
		return 0, fmt.Errorf("%s: a pool of %d does not split into %d passes", r.w.name, len(scns), rotation)
	}
	r.scns, r.passLen = scns, len(scns)/rotation
	if r.first == nil {
		r.seen = digests{results: make([]string, len(scns)), predictions: make([]string, len(scns))}
		r.first = make([]opOut, len(scns))
	}
	if r.ref != nil && len(r.ref.results) != len(scns) {
		return 0, fmt.Errorf("%s: reference.json has %d digests, want %d", r.w.name, len(r.ref.results), len(scns))
	}
	r.pass(ctx, nil, 0, false, func(done int) bool { return done >= 1 })
	tr.finish(root)
	return tr.spans[root].end - tr.spans[root].start, nil
}

// setups builds the workload setupReps times and returns each set-up time.
func (r *runner) setups(ctx context.Context) ([]float64, error) {
	walls := make([]float64, setupReps)
	for i := range walls {
		d, err := r.setup(ctx)
		if err != nil {
			return nil, err
		}
		walls[i] = d.Seconds()
	}
	return walls, nil
}

// op runs pool scenario i once with the given program seed.
func (r *runner) op(ctx context.Context, i int, seed uint64, tr *tracer, root int) (opOut, error) {
	if r.w.traced {
		return tracedOp(ctx, r.exact, r.learned, r.scns[i], seed, tr, root)
	}
	sp := tr.begin("backend.run", root)
	res, err := r.exact.Run(ctx, r.scns[i], seed)
	tr.finish(sp)
	return opOut{res: res}, err
}

// sweep runs fn over part v of the pool through harness.Run on one worker,
// so one operation is in flight at a time: a closed loop with one client.
// Point i is pool entry v·passLen + i, with program seed
// sim.DeriveSeed(sim.DeriveSeed(seed, v), i).
func sweep[T any](ctx context.Context, r *runner, v int, fn harness.Scenario[T]) []harness.Result[T] {
	cfg := harness.Config{Workers: 1, BaseSeed: sim.DeriveSeed(r.seed, uint64(v))}
	return harness.Run(ctx, cfg, r.passLen, fn)
}

// pass runs part v of the pool. Points whose turn comes after stop(done)
// reports true are skipped. It returns the operations that passed their
// checks, in pool order.
func (r *runner) pass(ctx context.Context, tr *tracer, v int, measureAllocs bool, stop func(done int) bool) []opSample {
	done := 0 // touched only by the sweep's single worker until it returns
	results := sweep(ctx, r, v, func(ctx context.Context, pt harness.Point) (opSample, error) {
		if stop != nil && stop(done) {
			return opSample{index: -1}, nil
		}
		var m0, m1 runtime.MemStats
		if measureAllocs {
			runtime.ReadMemStats(&m0)
		}
		i := v*r.passLen + pt.Index
		root := tr.begin("op", -1)
		start := time.Now()
		o, err := r.op(ctx, i, pt.Seed, tr, root)
		wall := time.Since(start)
		tr.finish(root)
		s := opSample{index: i, wall: wall, out: o}
		if measureAllocs {
			runtime.ReadMemStats(&m1)
			s.mallocs, s.allocBytes, s.gcs = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
		}
		done++
		return s, err
	})
	var out []opSample
	for _, hr := range results {
		if hr.Err == nil && hr.Value.index < 0 {
			continue
		}
		if !r.check(v*r.passLen+hr.Index, hr.Value.out, hr.Err) {
			continue
		}
		s := hr.Value
		s.simSec = s.out.res.Duration.Seconds()
		for _, j := range s.out.res.Jobs {
			s.delivered += j.DeliveredBytes
		}
		s.out.res, s.out.pred = nil, nil
		out = append(out, s)
	}
	return out
}

// timed runs passes, cycling through the pool and the first minPasses in
// full, until d has elapsed and the p90 has enough samples beyond it, or
// until 4·d at most.
func (r *runner) timed(ctx context.Context, tr *tracer, d time.Duration, minPasses int) []opSample {
	start := time.Now()
	minOps := minSamples(90)
	var out []opSample
	enough := func(done int) bool {
		el := time.Since(start)
		return el >= 4*d || (el >= d && len(out)+done >= minOps)
	}
	for k := 0; k < minPasses || !enough(0); k++ {
		var stop func(int) bool
		if k >= minPasses {
			stop = enough
		}
		for _, s := range r.pass(ctx, tr, k%rotation, false, stop) {
			s.pass = k
			out = append(out, s)
		}
	}
	return out
}

// passRate is simulated seconds per host second, the median over the
// complete passes among samples: a burst of host slowness moves one pass,
// not the figure.
func passRate(samples []opSample, passLen int) float64 {
	var sim, wall []float64
	var n []int
	for _, s := range samples {
		for len(n) <= s.pass {
			sim, wall, n = append(sim, 0), append(wall, 0), append(n, 0)
		}
		sim[s.pass] += s.simSec
		wall[s.pass] += s.wall.Seconds()
		n[s.pass]++
	}
	var rates []float64
	for k := range n {
		if n[k] == passLen {
			rates = append(rates, sim[k]/wall[k])
		}
	}
	return median(rates)
}

// check counts an operation on pool entry i and verifies its output: no
// error, the same digests as the first run of the same scenario and seed,
// and, at the default seed, the recorded reference digests.
func (r *runner) check(i int, o opOut, err error) bool {
	r.attempted++
	if err == nil {
		err = r.verify(i, o)
	}
	if err != nil {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, fmt.Sprintf("%s scenario %d: %v", r.w.name, i, err))
		}
		return false
	}
	return true
}

func (r *runner) verify(i int, o opOut) error {
	var ref digests
	if r.ref != nil {
		ref = *r.ref
	}
	d, err := digest(o.res)
	if err != nil {
		return err
	}
	if err := expect("result", r.seen.results, ref.results, i, d); err != nil {
		return err
	}
	if o.pred != nil {
		if d, err = digest(o.pred); err != nil {
			return err
		}
		if err := expect("prediction", r.seen.predictions, ref.predictions, i, d); err != nil {
			return err
		}
	}
	if r.first[i].res == nil || (o.pred != nil && r.first[i].pred == nil) {
		r.first[i] = o
	}
	return nil
}

// expect compares digest d of pool entry i with the first one seen and
// with the reference, when there is one.
func expect(what string, seen, ref []string, i int, d string) error {
	switch {
	case seen[i] == "":
		seen[i] = d
	case seen[i] != d:
		return fmt.Errorf("%s differs from the first run of the same scenario and seed", what)
	}
	if ref != nil && (i >= len(ref) || ref[i] != d) {
		return fmt.Errorf("%s digest %s does not match the reference", what, d)
	}
	return nil
}

// fidelityErrors returns the learned-vs-fluid and fluid-vs-packet mean
// relative slowdown errors over the whole pool, less any scenario whose
// operations all failed, from untimed runs of whichever tiers the timed
// loop did not run. Workloads without packet runs report a fluid-vs-packet
// error of 1, its value when one side has no result.
func (r *runner) fidelityErrors(ctx context.Context) (lvf, fvp float64, err error) {
	packet := r.w.backend == backend.NamePacket
	exact := make([]*backend.Result, len(r.first))
	for i, o := range r.first {
		exact[i] = o.res
	}
	fluid, pred := exact, make([]*backend.Result, len(r.first))
	if packet {
		fluid = make([]*backend.Result, len(r.first))
	}
	for v := 0; v < rotation; v++ {
		results := sweep(ctx, r, v, func(ctx context.Context, pt harness.Point) (struct{}, error) {
			var err error
			i := v*r.passLen + pt.Index
			if exact[i] == nil { // failed, and counted, in the timed loop
				return struct{}{}, nil
			}
			if packet {
				if fluid[i], err = (&backend.Fluid{}).Run(ctx, r.scns[i], pt.Seed); err != nil {
					return struct{}{}, err
				}
			}
			if pred[i] = r.first[i].pred; pred[i] == nil {
				pred[i], err = r.learned.Run(ctx, r.scns[i], pt.Seed)
			}
			return struct{}{}, err
		})
		if _, err := harness.Values(results); err != nil {
			return 0, 0, err
		}
	}
	if lvf, err = slowdownErr(pred, fluid, learn.SteadySkip); err != nil {
		return 0, 0, err
	}
	fvp = 1
	if packet {
		fvp, err = slowdownErr(fluid, exact, learn.SteadySkip)
	}
	return lvf, fvp, err
}

// emitStats sums one emission pass.
type emitStats struct {
	wall    time.Duration // in the exact backend's runs
	mallocs uint64        // allocated by those runs
	// Trace round-trip totals, when traced.
	events, traceBytes, limiterDrops int64
	counters                         map[string]int64
}

// emission runs the pool's first pass on the exact backend, without a
// telemetry recorder or, when traced, with one and then the trace's
// roundTrip under tr's spans. It checks every operation like any other:
// tracing must not change a Result.
func (r *runner) emission(ctx context.Context, traced bool, tr *tracer) emitStats {
	st := emitStats{counters: map[string]int64{}}
	runtime.GC()
	results := sweep(ctx, r, 0, func(ctx context.Context, pt harness.Point) (opOut, error) {
		scn, runCtx := r.scns[pt.Index], ctx
		var rec *telemetry.Recorder
		var buf *telemetry.Buffer
		var reg *telemetry.Registry
		if traced {
			rec, buf, reg = telemetry.NewBuffered(telemetry.Options{})
			runCtx = telemetry.WithRecorder(ctx, rec)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		res, err := r.exact.Run(runCtx, scn, pt.Seed)
		st.wall += time.Since(start)
		runtime.ReadMemStats(&m1)
		st.mallocs += m1.Mallocs - m0.Mallocs
		if err != nil || !traced {
			return opOut{res: res}, err
		}
		root := tr.begin("op", -1)
		defer tr.finish(root)
		return roundTrip(ctx, r.learned, scn, pt.Seed, res, rec, buf, reg, tr, root)
	})
	for _, hr := range results {
		if !r.check(hr.Index, hr.Value, hr.Err) {
			continue
		}
		st.events += hr.Value.events
		st.traceBytes += hr.Value.traceBytes
		st.limiterDrops += hr.Value.limiterDrops
		for name, v := range hr.Value.counters {
			st.counters[name] += v
		}
	}
	return st
}
