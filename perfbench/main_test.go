package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.generate(7)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := w.generate(7)
			c, _ := w.generate(8)
			if !bytes.Equal(bytes.Join(a, nil), bytes.Join(b, nil)) {
				t.Fatal("the same seed gave different scenario JSON")
			}
			if bytes.Equal(bytes.Join(a, nil), bytes.Join(c, nil)) {
				t.Fatal("different seeds gave the same scenario JSON")
			}
		})
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	if v, err := percentile(xs, 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and was accepted")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and was accepted")
	}
	if v, err := percentile(xs[:20], 50); err != nil || v != 90 {
		t.Fatalf("p50 of 100..81 = %v, %v; want 90", v, err)
	}
	if n := minSamples(90); n != 100 {
		t.Fatalf("minSamples(90) = %d, want 100", n)
	}
}

// pb appends protobuf fields for the synthetic profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(num, body)
}

func TestDecodeSyntheticProfile(t *testing.T) {
	names := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mltcp/internal/fluid.MaxMin.AllocateNetworkInto",
		"mltcp/internal/units.Rate.TransmissionTime",
		"mltcp/internal/sim.(*Engine).RunUntil",
		"runtime.mallocgc",
		"main.digest",
		"runtime.gcBgMarkWorker",
		"mltcp/internal/learn/gen.main"}
	var p pb
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2)) // samples/count
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4)) // cpu/nanoseconds
	for id := uint64(5); id < uint64(len(names)); id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id))
	}
	// Location 1 inlines units into MaxMin (innermost line first).
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 6)).bytes(4, pb{}.varint(1, 5)))
	for id := uint64(2); id <= 7; id++ { // location id → function id+5
		p = p.bytes(4, pb{}.varint(1, id).bytes(4, pb{}.varint(1, id+5)))
	}
	// Stacks, innermost first, with CPU values summing to 100.
	p = p.bytes(2, pb{}.packed(1, 1).packed(2, 1, 40))              // under MaxMin
	p = p.bytes(2, pb{}.packed(1, 3, 2).packed(2, 1, 30))           // mallocgc in sim
	p = p.bytes(2, pb{}.varint(1, 3).varint(1, 4).packed(2, 1, 10)) // unpacked ids: mallocgc in main
	p = p.bytes(2, pb{}.packed(1, 5).packed(2, 1, 15))              // GC worker
	p = p.bytes(2, pb{}.packed(1, 6).packed(2, 1, 5))               // internal sub-package
	for _, s := range names {
		p = p.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p)
	zw.Close()

	samples, err := decodeProfile(z.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("decoded %d samples, want 5", len(samples))
	}
	if got := strings.Join(samples[0].stack, " "); got != names[6]+" "+names[5] {
		t.Fatalf("inlined stack = %q", got)
	}
	want := map[string]float64{bucketMaxMin: 0.40, "sim": 0.30, bucketBench: 0.10, bucketRuntime: 0.15, "learn": 0.05}
	got := shares(samples)
	if len(got) != len(want) {
		t.Fatalf("shares = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Fatalf("shares = %v, want %v", got, want)
		}
	}
	if _, err := decodeProfile([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

var sink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.value <= 0 {
			t.Fatalf("sample with value %d", s.value)
		}
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if !found {
		t.Fatalf("no sample of %d names the spinning function", len(samples))
	}
}

// TestOutputCheck runs every workload's whole pool at the default seed
// against the recorded reference, then shows the check flags a run of
// the first scenario with another program seed, and a perturbed Result.
func TestOutputCheck(t *testing.T) {
	ctx := context.Background()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r, err := newRunner(w, defaultSeed, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.setup(ctx); err != nil {
				t.Fatal(err)
			}
			for v := 0; v < rotation; v++ {
				if got := r.pass(ctx, nil, v, false, nil); len(got) != r.passLen || r.failed != 0 {
					t.Fatalf("pass %d: %d of %d operations passed: %v", v, len(got), r.passLen, r.problems)
				}
			}
			o, err := r.op(ctx, 0, 12345, nil, -1)
			if err != nil {
				t.Fatal(err)
			}
			if r.check(0, o, nil) {
				t.Fatal("a run with another program seed passed the output check")
			}
			o = r.first[0]
			perturbed := *o.res
			perturbed.OverlapScore += 1e-9
			o.res = &perturbed
			if r.check(0, o, nil) {
				t.Fatal("a perturbed result passed the output check")
			}
			if r.failed != 2 {
				t.Fatalf("failed = %d, want 2", r.failed)
			}
		})
	}
}

func TestRunPrintsEveryMetric(t *testing.T) {
	for trace, want := range map[string][]string{
		"0": {"sim_rate", "op_s_p50", "op_s_p90", "setup_s", "peak_rss_mb", "ok_frac",
			"learned_vs_fluid_err", "fluid_vs_packet_err"},
		"1": {"telemetry.decode_s", "backend.run_s", "fluid.steps", "runtime.gc_share", "trace_overhead"},
	} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "trace-sweep", "--seed", "3", "--seconds", "0.2", "--trace", trace}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %s: %+v", trace, res)
		}
		for _, name := range want {
			if m, ok := res.Metrics[name]; !ok || m.Unit == "" {
				t.Fatalf("trace %s: metric %s missing", trace, name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "trace-sweep", "--trace", "2"},
		{"--workload", "trace-sweep", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Fatalf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
