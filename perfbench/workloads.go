package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"mltcp/internal/backend"
	"mltcp/internal/config"
	"mltcp/internal/diagnose"
	"mltcp/internal/experiments"
	"mltcp/internal/sim"
	"mltcp/internal/telemetry"
	profiles "mltcp/internal/workload"
)

// workload is one benchmark input set: a generator that turns the
// workload seed into scenario JSON, and the backend whose runs the timed
// loop repeats over those scenarios. README.md records why each was
// chosen.
type workload struct {
	name     string
	backend  string
	generate func(seed uint64) ([][]byte, error)
	// traced makes each operation the full trace round trip: a traced
	// run, JSONL encode, decode, ResultFromTrace, diagnose.Explain and a
	// learned prediction.
	traced bool
}

var workloads = []workload{
	{
		name:     "packet-dumbbell",
		backend:  backend.NamePacket,
		generate: genPacketDumbbell,
	},
	{
		name:     "fluid-fattree",
		backend:  backend.NameFluid,
		generate: genFluidFattree,
	},
	{
		name:     "trace-sweep",
		backend:  backend.NameFluid,
		generate: genTraceSweep,
		traced:   true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// Pool shapes: each pool is rotation passes of the given length. Pool
// entry i always has the same job count, policy and job mix: consecutive
// entries deal the profiles in turn, so every pool holds each profile
// about equally often. The seed varies what MLTCP's convergence depends on
// (start offsets, compute noise and the noise streams) and the order of
// jobs within an entry, so the work in a pass, and with it every per-run
// figure, compares across seeds.
const (
	dumbbellPass       = 18
	dumbbellHorizonSec = 4
	fattreePass        = 12
	fattreeJobs        = 60
	fattreeHorizonSec  = 5
	sweepPass          = 28
	sweepHorizonSec    = 15
)

var (
	// dumbbellProfiles leaves out gpt2: its 1.8 s period fits only two
	// phase starts in the horizon, so one tier seeing one more start than
	// the other would swing the cross-fidelity error of a whole run.
	dumbbellProfiles = []string{"gpt3", "bert", "resnet50", "vgg16", "dlrm"}
	dumbbellPolicies = []string{"mltcp", "mltcp-cubic", "mltcp-dctcp"}
	sweepPolicies    = []string{"mltcp", "reno", "srpt", "centralized"}
)

// genPacketDumbbell makes single-bottleneck scenarios of 2–4 jobs under the
// three MLTCP-wrapped congestion controls the packet tier implements.
func genPacketDumbbell(seed uint64) ([][]byte, error) {
	rng := sim.NewRNG(seed)
	deal := dealer(dumbbellProfiles)
	out := make([][]byte, rotation*dumbbellPass)
	for i := range out {
		b, err := json.Marshal(config.Scenario{
			Name:        fmt.Sprintf("dumbbell-%02d", i),
			Policy:      dumbbellPolicies[(i/3)%len(dumbbellPolicies)],
			DurationSec: dumbbellHorizonSec,
			Jobs:        seededJobs(rng, deal(2+i%3)),
		})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// genFluidFattree makes Poisson job traces on a k=8 fat-tree, one trace
// seed per pool entry derived from the workload seed. Jobs arrive within
// the first second and few finish within the horizon, so the allocator
// sees a busy fabric of about fattreeJobs flows throughout: how long an
// operation takes then depends on the code, not on how busy the seed's
// trace happened to be.
func genFluidFattree(seed uint64) ([][]byte, error) {
	out := make([][]byte, rotation*fattreePass)
	for i := range out {
		b, err := json.Marshal(experiments.ClusterScenario(experiments.ClusterOpts{
			Topology:          &config.Topology{Kind: config.KindFatTree, K: 8},
			Jobs:              fattreeJobs,
			ArrivalRatePerSec: 60,
			MeanIters:         1000,
			DurationSec:       fattreeHorizonSec,
			Seed:              sim.DeriveSeed(seed, uint64(i)),
		}))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// genTraceSweep makes short single-bottleneck scenarios of 2–8 jobs under
// MLTCP, Reno, SRPT and the centralized scheduler. A centralized scenario
// gives all its jobs one profile: the offline optimizer's cost grows with
// the least common multiple of the jobs' periods, and mixed profiles make
// one operation take minutes.
func genTraceSweep(seed uint64) ([][]byte, error) {
	rng := sim.NewRNG(seed)
	names := profiles.Names()
	deal := dealer(names)
	out := make([][]byte, rotation*sweepPass)
	for i := range out {
		policy, n := sweepPolicies[(i/7)%len(sweepPolicies)], 2+i%7
		var mix []string
		if policy == "centralized" {
			for k := 0; k < n; k++ {
				mix = append(mix, names[i%len(names)])
			}
		} else {
			mix = deal(n)
		}
		b, err := json.Marshal(config.Scenario{
			Name:        fmt.Sprintf("sweep-%02d", i),
			Policy:      policy,
			DurationSec: sweepHorizonSec,
			Jobs:        seededJobs(rng, mix),
		})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// dealer returns a function that deals the next n of names in turn.
func dealer(names []string) func(n int) []string {
	next := 0
	return func(n int) []string {
		mix := make([]string, n)
		for k := range mix {
			mix[k] = names[next%len(names)]
			next++
		}
		return mix
	}
}

// seededJobs makes one job per profile in mix, in a seeded order, each
// with a seeded start offset, compute noise and noise seed.
func seededJobs(rng *sim.RNG, mix []string) []config.Job {
	for k := len(mix) - 1; k > 0; k-- {
		j := rng.Intn(k + 1)
		mix[k], mix[j] = mix[j], mix[k]
	}
	jobs := make([]config.Job, len(mix))
	for k, p := range mix {
		jobs[k] = config.Job{
			Name:     fmt.Sprintf("J%d", k+1),
			Profile:  p,
			OffsetMS: float64(rng.Intn(200)),
			NoiseMS:  float64(1 + rng.Intn(4)),
			Seed:     uint64(rng.Intn(1 << 20)),
		}
	}
	return jobs
}

// opOut is what one operation produced.
type opOut struct {
	res, pred *backend.Result
	// What the trace held, when the operation wrote one: events, encoded
	// bytes, emissions the sampling limiter dropped, and the counters of
	// its metrics line.
	events, traceBytes, limiterDrops int64
	counters                         map[string]int64
}

// tracedOp is the trace-sweep operation, the pipeline of `mltcpsim -trace`
// followed by `mltcp-trace -explain`: a traced run, then its roundTrip.
func tracedOp(ctx context.Context, exact, learned backend.Backend, scn *config.Scenario, seed uint64, tr *tracer, root int) (opOut, error) {
	rec, buf, reg := telemetry.NewBuffered(telemetry.Options{})
	sp := tr.begin("backend.run", root)
	res, err := exact.Run(telemetry.WithRecorder(ctx, rec), scn, seed)
	tr.finish(sp)
	if err != nil {
		return opOut{}, err
	}
	return roundTrip(ctx, learned, scn, seed, res, rec, buf, reg, tr, root)
}

// roundTrip writes a traced run's trace as JSONL, reads it back, rebuilds
// the Result with ResultFromTrace and checks it against the run, explains
// the trace and asks the learned tier for a prediction.
func roundTrip(ctx context.Context, learned backend.Backend, scn *config.Scenario, seed uint64, res *backend.Result,
	rec *telemetry.Recorder, buf *telemetry.Buffer, reg *telemetry.Registry, tr *tracer, root int) (opOut, error) {
	rec.FlushLimiterStats()
	o := opOut{res: res, events: int64(buf.Len()), limiterDrops: rec.DroppedByLimiter()}
	var out bytes.Buffer
	sp := tr.begin("telemetry.encode", root)
	err := telemetry.Write(&out, rec.Manifest(), buf.Events(), reg)
	tr.finish(sp)
	if err != nil {
		return opOut{}, err
	}
	o.traceBytes = int64(out.Len())
	sp = tr.begin("telemetry.decode", root)
	trc, err := telemetry.Read(&out)
	tr.finish(sp)
	if err != nil {
		return opOut{}, err
	}
	if trc.Metrics != nil {
		o.counters = trc.Metrics.Counters
	}
	sp = tr.begin("backend.from_trace", root)
	back, err := backend.ResultFromTrace(trc.Manifest, trc.Events)
	tr.finish(sp)
	if err != nil {
		return opOut{}, err
	}
	if err := checkFromTrace(res, back); err != nil {
		return opOut{}, err
	}
	sp = tr.begin("diagnose.explain", root)
	rep, err := diagnose.Explain(trc)
	tr.finish(sp)
	if err != nil {
		return opOut{}, err
	}
	if rep.InterleavedAt != res.InterleavedAt {
		return opOut{}, fmt.Errorf("explain says interleaved at %d, run says %d", rep.InterleavedAt, res.InterleavedAt)
	}
	sp = tr.begin("learn.predict", root)
	o.pred, err = learned.Run(ctx, scn, seed)
	tr.finish(sp)
	return o, err
}
