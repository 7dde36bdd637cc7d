package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: a p90 from fewer than 100 samples rests on a handful of
// points and moves with every run.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs,
// and refuses when fewer than minBeyond samples lie above its rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples", p, n)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// minSamples is the smallest sample count for which percentile(p) is
// reportable.
func minSamples(p float64) int {
	for n := minBeyond; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// span is one timed call into a layer. Spans of one operation share op;
// parent is the index of the enclosing span (-1 for the operation itself).
type span struct {
	op, parent int
	name       string
	start, end time.Duration
}

// tracer keeps the spans of a traced phase in memory. A nil tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), op: -1} }

// begin opens a span under parent and returns its index (-1 when nil).
// Opening a span with parent -1 starts a new operation.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	if parent < 0 {
		t.op++
	}
	t.spans = append(t.spans, span{op: t.op, parent: parent, name: name, start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// finish closes span id.
func (t *tracer) finish(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.origin)
}

// total returns the summed duration of every span with the given name and
// how many there were.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	var sum time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	return sum, n
}

// mean returns the mean duration in seconds of the named spans (0 if none).
func (t *tracer) mean(name string) float64 {
	sum, n := t.total(name)
	return ratio(sum.Seconds(), float64(n))
}

// durations returns the duration in seconds of every span with the given
// name, in the order they were opened.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}
