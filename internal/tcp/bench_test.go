package tcp

import (
	"testing"

	"mltcp/internal/netsim"
	"mltcp/internal/sim"
)

// roundTripBytes is what one round-trip op transfers: 685 full segments.
const roundTripBytes = 1_000_100

// roundTrip is one Reno flow on a two-host dumbbell (testNet: 100 Mbps
// bottleneck with its 100-packet drop-tail buffer). Each op writes
// roundTripBytes and runs the engine until the sender has drained them,
// so it covers the whole per-packet path: engine, links, queues, switch
// and host dispatch, the receiver's ACKs and the sender's ACK processing,
// losses and recoveries included once the window outgrows the buffer.
type roundTrip struct {
	eng *sim.Engine
	net *netsim.Dumbbell
	f   *Flow
}

func newRoundTrip() *roundTrip {
	eng := sim.New()
	net := testNet(eng, 1, nil)
	f := NewFlow(eng, 1, net.Left[0], net.Right[0], NewReno(), Config{})
	f.Sender.Drained(func(sim.Time) { eng.Stop() })
	return &roundTrip{eng: eng, net: net, f: f}
}

func (r *roundTrip) op() {
	r.f.Sender.Write(roundTripBytes)
	r.eng.Run()
}

// BenchmarkDumbbellRoundTrip reports the packet tier's cost per packet a
// link serializes (ns/pkt), data and ACKs on every hop.
func BenchmarkDumbbellRoundTrip(b *testing.B) {
	r := newRoundTrip()
	r.op() // warm the pools and the window
	sent := r.net.AggregateStats().PacketsSent
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.op()
	}
	b.StopTimer()
	if pkts := r.net.AggregateStats().PacketsSent - sent; pkts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pkts), "ns/pkt")
	}
}

// TestDumbbellRoundTripAllocFree pins the packet path at zero allocations
// per op in steady state: events, packets and delivery records all come
// from free lists once the first op has grown them.
func TestDumbbellRoundTripAllocFree(t *testing.T) {
	r := newRoundTrip()
	for i := 0; i < 3; i++ {
		r.op()
	}
	if got := testing.AllocsPerRun(5, r.op); got != 0 {
		t.Fatalf("%v allocs per round-trip op, want 0", got)
	}
	if got := r.f.Receiver.BytesReceived(); got != 9*roundTripBytes {
		t.Fatalf("received %d bytes over 9 ops, want %d", got, 9*roundTripBytes)
	}
}
