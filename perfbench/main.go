// Command perfbench is the repository benchmark. It runs one workload from
// a workload seed, checks every operation's output, and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separately
// traced run (--trace 1), as a table and then as one JSON line:
//
//	go run . --workload packet-dumbbell --seed 1 --seconds 30 --trace 0
//
// README.md describes the workloads and what each metric should move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mltcp/internal/backend"
	"mltcp/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: packet-dumbbell, fluid-fattree or trace-sweep")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the generated scenarios are a pure function of it")
	secs := fs.Float64("seconds", 30, "how long the timed loop measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeRef := fs.String("write-reference", "", "record every workload's output digests at the default seed into `file` and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()
	if *writeRef != "" {
		if err := recordReference(ctx, *writeRef); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err == nil && (*secs <= 0 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	r, err := newRunner(w, *seed, true)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	d := time.Duration(*secs * float64(time.Second))
	var ms []metric
	if *trace == 0 {
		ms, err = r.endToEnd(ctx, d)
	} else {
		ms, err = r.perLayer(ctx, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", p)
	}
	fmt.Fprintf(stdout, "%s seed %d trace %d: %d operations, %d failed\n", w.name, *seed, *trace, r.attempted, r.failed)
	for _, m := range ms {
		v, note := fmt.Sprintf("%.6g", m.value), m.note
		if m.na {
			v, note = "n/a", m.naNote
		}
		fmt.Fprintf(stdout, "  %-28s %14s %-6s %s\n", m.name, v, m.unit, note)
	}
	line, err := resultJSON(r, ms)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure. A metric whose layer does no work in the
// workload is n/a: the table says so and the JSON carries its zero value,
// or for an end-to-end metric the value its definition gives.
type metric struct {
	name, unit string
	value      float64
	na         bool
	note       string
	naNote     string // shown instead of note when na
}

func resultJSON(r *runner, ms []metric) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]value{}}
	for _, m := range ms {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(out)
}

// endToEnd measures what a user sees, with tracing off: simulated seconds
// per host second, per-operation host time, set-up time, peak memory, the
// share of operations that passed their checks, and cross-fidelity error.
func (r *runner) endToEnd(ctx context.Context, d time.Duration) ([]metric, error) {
	setups, err := r.setups(ctx)
	if err != nil {
		return nil, err
	}
	samples := r.timed(ctx, nil, d, rotation)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	walls := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
	}
	p50, err := percentile(walls, 50)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(walls, 90)
	if err != nil {
		return nil, err
	}
	lvf, fvp, err := r.fidelityErrors(ctx)
	if err != nil {
		return nil, err
	}
	n := fmt.Sprintf("(n=%d)", len(samples))
	return []metric{
		{name: "sim_rate", unit: "s/s", value: passRate(samples, r.passLen), note: "(median over complete passes)"},
		{name: "op_s_p50", unit: "s", value: p50, note: n},
		{name: "op_s_p90", unit: "s", value: p90, note: n},
		{name: "setup_s", unit: "s", value: median(setups), note: fmt.Sprintf("(median of %d)", len(setups))},
		{name: "peak_rss_mb", unit: "MB", value: rss},
		{name: "ok_frac", unit: "ratio", value: 1 - ratio(float64(r.failed), float64(r.attempted))},
		{name: "learned_vs_fluid_err", unit: "ratio", value: lvf},
		{name: "fluid_vs_packet_err", unit: "ratio", value: fvp, na: r.w.backend != backend.NamePacket,
			naNote: "(JSON reads 1: no packet run to compare)"},
	}, nil
}

// perLayer measures each layer's work and cost. An untraced phase gives
// allocation counts and the baseline operation time; a traced phase, with
// the CPU profiler, spans and the obs collector on, gives counters, span
// times and CPU shares; a last pair of passes runs the exact backend
// without and with a telemetry recorder, the latter followed by the trace's
// round trip, which gives the telemetry, diagnose and learn figures on
// every workload.
func (r *runner) perLayer(ctx context.Context, d time.Duration) ([]metric, error) {
	if _, err := r.setups(ctx); err != nil {
		return nil, err
	}
	pool := r.passLen
	runtime.GC()
	allocs := r.pass(ctx, nil, 0, true, nil)
	untraced := r.timed(ctx, nil, d/2, 1)

	col := obs.NewCollector()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := r.timed(obs.WithCollector(ctx, col), tr, d/2, 1)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	share := shares(samples)

	off := r.emission(ctx, false, nil)
	rt := newTracer()
	on := r.emission(ctx, true, rt)

	var runs []obs.RunStats
	for _, s := range col.Runs() {
		if s.Backend == r.w.backend {
			runs = append(runs, s)
		}
	}
	// The counts below pair the first pass's samples with its RunStats by
	// position, which holds only when no operation failed.
	if r.failed > 0 || len(runs) < pool || len(allocs) < pool || len(traced) < pool {
		return nil, fmt.Errorf("%s: %d operations failed: %v", r.w.name, r.failed, r.problems)
	}
	// Counts are per operation over exactly the first traced pass, so they
	// repeat exactly; rates use the whole traced phase.
	var c struct {
		events, sent, dropped, bytesSent, delivered, maxPending int64
		mallocs, allocBytes, gcs                                uint64
	}
	for i, s := range runs[:pool] {
		c.events += int64(s.Events)
		c.sent += s.PacketsSent
		c.dropped += s.PacketsDropped
		c.bytesSent += s.BytesSent
		c.maxPending = max(c.maxPending, int64(s.MaxHeapDepth))
		c.delivered += traced[i].delivered
		c.mallocs += allocs[i].mallocs
		c.allocBytes += allocs[i].allocBytes
		c.gcs += uint64(allocs[i].gcs)
	}
	var allEvents uint64
	var runWall time.Duration
	for _, s := range runs {
		allEvents += s.Events
		runWall += s.Wall
	}
	perOp := func(v int64) float64 { return float64(v) / float64(pool) }
	var busy, capacity float64
	for _, s := range col.Sweeps() {
		busy += s.BusyTime().Seconds()
		capacity += float64(s.Workers) * s.Wall.Seconds()
	}
	decodeSum, _ := rt.total("telemetry.decode")
	runSpan := tr.mean("backend.run")
	runStat := runWall.Seconds() / float64(len(runs))
	loadSpans := r.setupTr.durations("config.load")
	genSpans := r.setupTr.durations("experiments.generate")
	modelSpans := r.setupTr.durations("learn.model_load")

	packet := r.w.backend == backend.NamePacket
	fluid := r.w.backend == backend.NameFluid
	cpu := func(layer string) metric {
		v := share[layer]
		return metric{name: layer + ".cpu_share", unit: "ratio", value: v, na: v == 0}
	}
	ms := []metric{
		{name: "sim.events", unit: "count", value: perOp(c.events), na: !packet},
		{name: "sim.events_per_s", unit: "1/s", value: ratio(float64(allEvents), runWall.Seconds()), na: !packet},
		{name: "sim.max_pending", unit: "count", value: float64(c.maxPending), na: !packet},
		cpu("sim"),
		{name: "netsim.packets_sent", unit: "count", value: perOp(c.sent), na: !packet},
		{name: "netsim.drop_ratio", unit: "ratio", value: ratio(float64(c.dropped), float64(c.sent)), na: !packet},
		{name: "netsim.goodput_ratio", unit: "ratio", value: ratio(float64(c.delivered), float64(c.bytesSent)), na: !packet},
		cpu("netsim"),
		cpu("units"),
		{name: "tcp.retransmits", unit: "count", value: perOp(on.counters["tcp.retransmits"]), na: !packet},
		{name: "tcp.timeouts", unit: "count", value: perOp(on.counters["tcp.timeouts"]), na: !packet},
		{name: "tcp.fast_recoveries", unit: "count", value: perOp(on.counters["tcp.fast_recoveries"]), na: !packet},
		cpu("tcp"),
		cpu("core"),
		{name: "fluid.steps", unit: "count", value: perOp(c.events), na: !fluid},
		{name: "fluid.steps_per_s", unit: "1/s", value: ratio(float64(allEvents), runWall.Seconds()), na: !fluid},
		cpu("fluid"),
		{name: "fluid.maxmin_share", unit: "ratio", value: share[bucketMaxMin], na: share[bucketMaxMin] == 0},
		{name: "backend.run_s", unit: "s", value: runStat},
		{name: "backend.compile_s", unit: "s", value: runSpan - runStat},
		{name: "backend.from_trace_s", unit: "s", value: rt.mean("backend.from_trace")},
		cpu("backend"),
		{name: "telemetry.events", unit: "count", value: perOp(on.events)},
		{name: "telemetry.trace_bytes", unit: "B", value: perOp(on.traceBytes)},
		{name: "telemetry.limiter_drops", unit: "count", value: perOp(on.limiterDrops)},
		{name: "telemetry.encode_s", unit: "s", value: rt.mean("telemetry.encode")},
		{name: "telemetry.decode_s", unit: "s", value: rt.mean("telemetry.decode")},
		{name: "telemetry.decode_mb_per_s", unit: "MB/s", value: ratio(float64(on.traceBytes)/1e6, decodeSum.Seconds())},
		cpu("telemetry"),
		{name: "telemetry.emit_overhead", unit: "ratio", value: ratio(on.wall.Seconds(), off.wall.Seconds())},
		{name: "telemetry.emit_allocs", unit: "count", value: (float64(on.mallocs) - float64(off.mallocs)) / float64(pool)},
		{name: "diagnose.explain_s", unit: "s", value: rt.mean("diagnose.explain")},
		cpu("diagnose"),
		{name: "learn.predict_s", unit: "s", value: rt.mean("learn.predict")},
		cpu("learn"),
		{name: "harness.utilization", unit: "ratio", value: ratio(busy, capacity)},
		{name: "config.load_s", unit: "s", value: median(loadSpans)},
		{name: "experiments.generate_s", unit: "s", value: median(genSpans)},
		{name: "learn.model_load_s", unit: "s", value: modelSpans[0], note: "(first load; later calls are cached)"},
		{name: "runtime.allocs_per_op", unit: "count", value: float64(c.mallocs) / float64(pool)},
		{name: "runtime.alloc_bytes_per_op", unit: "B", value: float64(c.allocBytes) / float64(pool)},
		{name: "runtime.gc_cycles_per_op", unit: "count", value: float64(c.gcs) / float64(pool)},
		{name: "runtime.gc_share", unit: "ratio", value: share[bucketRuntime]},
		{name: "bench.cpu_share", unit: "ratio", value: share[bucketBench]},
		{name: "trace_overhead", unit: "ratio", value: overhead(traced, untraced)},
	}
	for i := range ms {
		if ms[i].na {
			ms[i].value = 0
		}
	}
	return ms, nil
}

// overhead is traced over untraced time for the pool entries both phases
// ran, from each entry's mean operation time, so phases that end in
// different passes compare fairly.
func overhead(traced, untraced []opSample) float64 {
	mean := func(samples []opSample) map[int]float64 {
		sum, n := map[int]float64{}, map[int]float64{}
		for _, s := range samples {
			sum[s.index] += s.wall.Seconds()
			n[s.index]++
		}
		for i := range sum {
			sum[i] /= n[i]
		}
		return sum
	}
	t, u := mean(traced), mean(untraced)
	var tt, uu float64
	for i, v := range t {
		if w, ok := u[i]; ok {
			tt, uu = tt+v, uu+w
		}
	}
	return ratio(tt, uu)
}

// recordReference runs every workload's whole pool at the default seed and
// writes the output digests.
func recordReference(ctx context.Context, path string) error {
	all := map[string]digests{}
	for i := range workloads {
		r, err := newRunner(&workloads[i], defaultSeed, false)
		if err != nil {
			return err
		}
		if _, err := r.setup(ctx); err != nil {
			return err
		}
		for v := 0; v < rotation; v++ {
			r.pass(ctx, nil, v, false, nil)
		}
		if r.failed > 0 {
			return fmt.Errorf("%s: %v", r.w.name, r.problems)
		}
		all[r.w.name] = r.seen
	}
	return writeReference(path, all)
}
