package experiments

import (
	"mltcp/internal/backend"
	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/tcp"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// Packet-level experiments that a config.Scenario cannot express (a
// parking-lot chain, background traffic, learned MLTCP parameters) build
// their network by hand and drive each job with backend.PacketJob, at the
// same 1/100 scale backend.Packet renders a 50 Gbps scenario at: a
// 500 Mbps bottleneck with byte volumes scaled likewise, so iteration
// times match the full-scale scenarios while packet counts stay tractable.
const (
	plRate  = 500 * units.Mbps
	plScale = 0.01
)

// ScaledGPT2 is the GPT-2 profile with bytes at 1/100 (for the 500 Mbps
// bottleneck) and the compute phase at full duration, so iteration
// structure matches the 50 Gbps scenario.
func ScaledGPT2() workload.Profile {
	p := workload.GPT2.Scale(plScale)
	p.ComputeTime = workload.GPT2.ComputeTime
	return p
}

// dumbbell builds the packet-level dumbbell backend.Packet renders for a
// 50 Gbps scenario, with the given number of host pairs.
func dumbbell(eng *sim.Engine, pairs int) *netsim.Dumbbell {
	return netsim.NewDumbbell(eng, netsim.DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        5 * units.Gbps,
		BottleneckRate:  plRate,
		HostDelay:       10 * sim.Microsecond,
		BottleneckDelay: 30 * sim.Microsecond,
	})
}

// startGPT2 opens flow i+1 from src to dst under cc and runs a ScaledGPT2
// job over it, its first iteration staggered by i×StaggerOffset.
func startGPT2(eng *sim.Engine, i int, src, dst *netsim.Host, cc tcp.CongestionControl, cfg tcp.Config) *backend.PacketJob {
	p := ScaledGPT2()
	f := tcp.NewFlow(eng, netsim.FlowID(i+1), src, dst, cc, cfg)
	j := &backend.PacketJob{Sender: f.Sender, Bytes: int64(p.CommBytes), Compute: p.ComputeTime}
	j.Start(eng, sim.Time(i)*StaggerOffset)
	return j
}

// steadyAvg averages a job's last 10 iteration times (0 before its first
// iteration completes).
func steadyAvg(j *backend.PacketJob) sim.Time {
	ts := j.IterTimes()
	ts = ts[max(0, len(ts)-10):]
	if len(ts) == 0 {
		return 0
	}
	var sum sim.Time
	for _, d := range ts {
		sum += d
	}
	return sum / sim.Time(len(ts))
}

// AutoLearned runs two ScaledGPT2 jobs on the dumbbell whose MLTCP-Reno
// senders learn TOTAL_BYTES and COMP_TIME from their first iterations
// (core.NewLearner with a 100 ms ack-gap threshold), as the paper's kernel
// module does when neither is given. It returns each job's steady-state
// slowdown: the mean of its last 10 iterations over the ideal.
func AutoLearned(horizon sim.Time) []float64 {
	eng := sim.New()
	net := dumbbell(eng, 2)
	jobs := make([]*backend.PacketJob, 2)
	for i := range jobs {
		cc := core.Wrap(tcp.NewReno(), core.Default(), core.NewLearner(100*sim.Millisecond, 2))
		jobs[i] = startGPT2(eng, i, net.Left[i], net.Right[i], cc, tcp.Config{})
	}
	eng.RunUntil(horizon)
	ideal := ScaledGPT2().IdealIterTime(plRate)
	slow := make([]float64, len(jobs))
	for i, j := range jobs {
		slow[i] = steadyAvg(j).Seconds() / ideal.Seconds()
	}
	return slow
}
