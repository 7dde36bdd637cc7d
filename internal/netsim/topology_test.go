package netsim

import (
	"fmt"
	"strings"
	"testing"

	"mltcp/internal/sim"
	"mltcp/internal/units"
)

// echoEndpoint counts received data packets and acks nothing.
type echoEndpoint struct {
	got int
	eng *sim.Engine
}

func (e *echoEndpoint) HandlePacket(_ *sim.Engine, p *Packet) { e.got++ }

func testDumbbell(eng *sim.Engine, pairs int) *Dumbbell {
	return NewDumbbell(eng, DumbbellConfig{
		HostPairs:       pairs,
		HostRate:        10 * units.Gbps,
		BottleneckRate:  1 * units.Gbps,
		HostDelay:       5 * sim.Microsecond,
		BottleneckDelay: 20 * sim.Microsecond,
	})
}

func TestDumbbellForwardDelivery(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 2)
	ep := &echoEndpoint{}
	d.Right[1].Attach(42, ep)
	d.Left[0].Send(&Packet{Flow: 42, Dst: d.Right[1].ID(), Payload: 1000})
	eng.Run()
	if ep.got != 1 {
		t.Fatalf("endpoint received %d packets, want 1", ep.got)
	}
	if d.Forward.Stats().PacketsSent != 1 {
		t.Errorf("bottleneck carried %d packets, want 1", d.Forward.Stats().PacketsSent)
	}
}

func TestDumbbellReverseDelivery(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 1)
	ep := &echoEndpoint{}
	d.Left[0].Attach(7, ep)
	d.Right[0].Send(&Packet{Flow: 7, Dst: d.Left[0].ID(), Ack: true})
	eng.Run()
	if ep.got != 1 {
		t.Fatalf("left endpoint received %d, want 1", ep.got)
	}
	if d.Reverse.Stats().PacketsSent != 1 {
		t.Errorf("reverse bottleneck carried %d, want 1", d.Reverse.Stats().PacketsSent)
	}
}

func TestDumbbellEndToEndLatency(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 1)
	var arrival sim.Time
	done := func(e *sim.Engine, p *Packet) { arrival = e.Now() }
	d.Right[0].Attach(1, endpointFunc(done))
	d.Left[0].Send(&Packet{Flow: 1, Dst: d.Right[0].ID(), Payload: MaxPayload})
	eng.Run()
	// Path: host uplink (10G: 1.2µs + 5µs) -> bottleneck (1G: 12µs +
	// 20µs) -> host downlink (10G: 1.2µs + 5µs) = 44.4µs.
	want := sim.Time(44400)
	if arrival != want {
		t.Errorf("arrival = %v, want %v", arrival, want)
	}
}

type endpointFunc func(*sim.Engine, *Packet)

func (f endpointFunc) HandlePacket(e *sim.Engine, p *Packet) { f(e, p) }

func TestDumbbellSharedBottleneck(t *testing.T) {
	eng := sim.New()
	d := testDumbbell(eng, 3)
	for i := 0; i < 3; i++ {
		d.Right[i].Attach(FlowID(i), &echoEndpoint{})
	}
	// All three left hosts blast packets; everything funnels through the
	// single forward bottleneck.
	for i := 0; i < 3; i++ {
		for k := 0; k < 10; k++ {
			d.Left[i].Send(&Packet{Flow: FlowID(i), Dst: d.Right[i].ID(), Payload: 1000})
		}
	}
	eng.Run()
	if got := d.Forward.Stats().PacketsSent; got != 30 {
		t.Errorf("bottleneck carried %d packets, want 30", got)
	}
}

// expectPanic runs fn and requires it to panic with a message containing
// want.
func expectPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	fn()
}

func TestHostAttachDuplicatePanics(t *testing.T) {
	h := NewHost(1, "h")
	h.Attach(1, &echoEndpoint{})
	expectPanic(t, "already has an endpoint for flow 1", func() { h.Attach(1, &echoEndpoint{}) })
	expectPanic(t, "negative flow -1", func() { h.Attach(-1, &echoEndpoint{}) })
	expectPanic(t, "nil endpoint", func() { h.Attach(2, nil) })
}

// TestHostUnknownFlowPanics covers every way a flow can miss the endpoint
// table: beyond its end, negative, and a gap inside it.
func TestHostUnknownFlowPanics(t *testing.T) {
	eng := sim.New()
	h := NewHost(1, "h")
	expectPanic(t, "unknown flow 99", func() { h.Receive(eng, &Packet{Flow: 99}) })
	ep := &echoEndpoint{}
	h.Attach(3, ep)
	for _, f := range []FlowID{4, 99, -1, 0, 2} {
		expectPanic(t, fmt.Sprintf("unknown flow %d", f), func() { h.Receive(eng, &Packet{Flow: f}) })
	}
	h.Receive(eng, &Packet{Flow: 3})
	if ep.got != 1 {
		t.Fatalf("attached endpoint got %d packets, want 1", ep.got)
	}
}

// TestSwitchNoRoutePanics covers every way a destination can miss the
// route table: beyond its end, negative, and a gap inside it.
func TestSwitchNoRoutePanics(t *testing.T) {
	eng := sim.New()
	s := NewSwitch(1, "s")
	expectPanic(t, "has no route to node 5", func() { s.Receive(eng, &Packet{Dst: 5}) })
	s.AddRoute(3, NewLink(eng, "l", units.Gbps, 0, NewDropTail(1<<20), &sink{}))
	for _, d := range []NodeID{4, 5, -1, 0, 2} {
		expectPanic(t, fmt.Sprintf("has no route to node %d (flow 7)", d),
			func() { s.Receive(eng, &Packet{Dst: d, Flow: 7}) })
	}
	expectPanic(t, "route to negative node -2", func() { s.AddRoute(-2, nil) })
}

// TestSwitchAddRouteReplaces pins that a later AddRoute for the same
// destination replaces the earlier one.
func TestSwitchAddRouteReplaces(t *testing.T) {
	eng := sim.New()
	s := NewSwitch(0, "s")
	old, cur := &sink{}, &sink{}
	s.AddRoute(2, NewLink(eng, "old", units.Gbps, 0, NewDropTail(1<<20), old))
	s.AddRoute(2, NewLink(eng, "cur", units.Gbps, 0, NewDropTail(1<<20), cur))
	s.Receive(eng, &Packet{Dst: 2, Payload: 100})
	eng.Run()
	if len(old.pkts) != 0 || len(cur.pkts) != 1 {
		t.Fatalf("replaced route got %d packets, current route %d; want 0 and 1", len(old.pkts), len(cur.pkts))
	}
}

func TestDumbbellConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero host pairs did not panic")
		}
	}()
	NewDumbbell(sim.New(), DumbbellConfig{HostPairs: 0, HostRate: 1, BottleneckRate: 1})
}
