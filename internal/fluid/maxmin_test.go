package fluid

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"mltcp/internal/core"
	"mltcp/internal/netsim"
	"mltcp/internal/sim"
	"mltcp/internal/units"
	"mltcp/internal/workload"
)

// netJob builds a communicating job with a constant weight (F(r) = weight
// for every r) and the given path, ready for Allocate calls.
func netJob(name string, weight float64, path []int) *Job {
	j := &Job{
		Spec: workload.Spec{
			Name: name,
			Profile: workload.Profile{
				Name: "t", ComputeTime: sim.Millisecond, CommBytes: units.ByteCount(1e9),
			},
		},
		Path: path,
	}
	if weight != 1 { //lint:allow simunits weight is a test constant; 1 selects the nil-Agg plain-TCP job exactly
		f := core.Linear(0, weight)
		j.Agg = &f
	}
	j.phase = phaseComm
	j.commRemaining = j.TotalBytes()
	return j
}

// relTol is the ulp-scaled tolerance for the allocator invariants: the
// progressive-filling sums accumulate at most a handful of rounding
// errors per link.
const relTol = 1e-9

// checkInvariants asserts the three max-min properties on one allocation:
// per-link conservation, bottleneck saturation for every positive-weight
// flow, and weight-proportional rates among flows frozen at the same
// bottleneck (verified pairwise for identical paths).
func checkInvariants(t *testing.T, nw *Network, jobs []*Job, rates []units.Rate) {
	t.Helper()
	if len(rates) != len(jobs) {
		t.Fatalf("%d rates for %d jobs", len(rates), len(jobs))
	}
	load := make([]float64, len(nw.Capacities))
	for i, j := range jobs {
		if rates[i] < 0 {
			t.Fatalf("job %s: negative rate %v", j.Spec.Label(), rates[i])
		}
		for _, l := range j.Path {
			load[l] += float64(rates[i])
		}
	}
	for l, cap := range nw.Capacities {
		if load[l] > float64(cap)*(1+relTol) {
			t.Fatalf("link %d: load %g exceeds capacity %g", l, load[l], float64(cap))
		}
	}
	for i, j := range jobs {
		if j.Weight() <= 0 {
			continue
		}
		saturated := false
		for _, l := range j.Path {
			if load[l] >= float64(nw.Capacities[l])*(1-relTol) {
				saturated = true
				break
			}
		}
		if !saturated {
			t.Fatalf("job %s (rate %v) has no saturated link on its path", j.Spec.Label(), rates[i])
		}
	}
	// Weighted fairness: identical paths imply the same bottleneck, so
	// rates must be proportional to weights.
	for i := range jobs {
		for k := i + 1; k < len(jobs); k++ {
			if !reflect.DeepEqual(jobs[i].Path, jobs[k].Path) {
				continue
			}
			wi, wk := jobs[i].Weight(), jobs[k].Weight()
			if wi <= 0 || wk <= 0 {
				continue
			}
			got := float64(rates[i]) * wk
			want := float64(rates[k]) * wi
			if math.Abs(got-want) > relTol*math.Max(math.Abs(got), 1) {
				t.Fatalf("jobs %s/%s share a path but rates %v:%v are not %g:%g",
					jobs[i].Spec.Label(), jobs[k].Spec.Label(), rates[i], rates[k], wi, wk)
			}
		}
	}
}

// TestMaxMinRandomTopologies is the allocator invariant property test:
// randomized seeded link sets, paths, and weights, checked against
// conservation, saturation, and weighted fairness on every draw.
func TestMaxMinRandomTopologies(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"k", "l", "m", "n", "o", "p", "q", "r", "s", "u"}
	for seed := uint64(0); seed < 64; seed++ {
		rng := sim.NewRNGAt(42, seed)
		nl := 1 + rng.Intn(12)
		caps := make([]units.Rate, nl)
		for l := range caps {
			caps[l] = units.Rate((1 + rng.Float64()*99) * float64(units.Gbps))
		}
		nw := NewNetwork(caps, nil)
		n := 1 + rng.Intn(len(names)-1)
		jobs := make([]*Job, n)
		for i := range jobs {
			// Path: 1..4 distinct links in random order.
			pl := 1 + rng.Intn(4)
			if pl > nl {
				pl = nl
			}
			perm := make([]int, nl)
			for p := range perm {
				perm[p] = p
			}
			for p := 0; p < pl; p++ { // partial Fisher–Yates
				q := p + rng.Intn(nl-p)
				perm[p], perm[q] = perm[q], perm[p]
			}
			w := 0.25 + rng.Float64()*1.75 // the paper's F range
			jobs[i] = netJob(names[i], w, perm[:pl])
		}
		rates := allocate(MaxMin{}, nw, jobs)
		checkInvariants(t, nw, jobs, rates)
	}
}

// TestMaxMinSingleLinkBitIdentical pins the degenerate case the golden
// traces rely on: over one link, MaxMin reproduces WeightedShare bit for
// bit, for arbitrary weights.
func TestMaxMinSingleLinkBitIdentical(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		rng := sim.NewRNGAt(7, seed)
		n := 1 + rng.Intn(20)
		jobs := make([]*Job, n)
		netJobs := make([]*Job, n)
		for i := range jobs {
			w := 0.25 + rng.Float64()*1.75
			jobs[i] = netJob("s", w, nil)
			netJobs[i] = netJob("s", w, []int{0})
		}
		cap := units.Rate((1 + rng.Float64()*99) * float64(units.Gbps))
		nw := NewNetwork([]units.Rate{cap}, []string{"bottleneck"})
		want := allocate(WeightedShare{}, nw, jobs)
		if got := allocate(MaxMin{}, nw, netJobs); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: MaxMin over one link diverged from WeightedShare", seed)
		}
	}
}

// TestMaxMinParkingLot checks the textbook multi-bottleneck answer: two
// unit links in series, one long flow crossing both and one short flow on
// each. Max-min gives every flow 1/2.
func TestMaxMinParkingLot(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9), units.Rate(1e9)}, nil)
	jobs := []*Job{
		netJob("long", 1, []int{0, 1}),
		netJob("s0", 1, []int{0}),
		netJob("s1", 1, []int{1}),
	}
	rates := allocate(MaxMin{}, nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	for i, want := range []float64{0.5e9, 0.5e9, 0.5e9} {
		if got := float64(rates[i]); math.Abs(got-want) > relTol*want {
			t.Errorf("flow %d: rate %g, want %g", i, got, want)
		}
	}
}

// TestMaxMinMultiBottleneck checks that a flow leaving its first
// bottleneck's headroom behind claims it on a wider link: cap(0)=1,
// cap(1)=10, long flow on both, local flow on link 1 only.
func TestMaxMinMultiBottleneck(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9), units.Rate(10e9)}, nil)
	jobs := []*Job{
		netJob("long", 1, []int{0, 1}),
		netJob("local", 1, []int{1}),
	}
	rates := allocate(MaxMin{}, nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	if got, want := float64(rates[0]), 1e9; math.Abs(got-want) > relTol*want {
		t.Errorf("long flow: rate %g, want %g", got, want)
	}
	if got, want := float64(rates[1]), 9e9; math.Abs(got-want) > relTol*want {
		t.Errorf("local flow: rate %g, want %g", got, want)
	}
}

// TestMaxMinWeightScaling pins exact proportional scaling: doubling a
// flow's weight exactly doubles its share against a unit-weight peer on
// the same bottleneck (the MLTCP aggressiveness contract).
func TestMaxMinWeightScaling(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(3e9)}, nil)
	jobs := []*Job{
		netJob("w2", 2, []int{0}),
		netJob("w1", 1, []int{0}),
	}
	rates := allocate(MaxMin{}, nw, jobs)
	checkInvariants(t, nw, jobs, rates)
	if float64(rates[0]) != 2*float64(rates[1]) { //lint:allow simunits 2× proportionality is exact in binary floating point for the shared-denominator expression
		t.Errorf("rates %v, %v: want exact 2:1 split", rates[0], rates[1])
	}
}

// TestSimNetworkRun integrates the allocator with the solver: two jobs on
// a three-link chain complete iterations, and a job sharing no link with
// them is unaffected by their contention.
func TestSimNetworkRun(t *testing.T) {
	cap := units.Rate(50 * units.Gbps)
	nw := NewNetwork([]units.Rate{cap, cap, cap, cap}, []string{"l0", "l1", "l2", "l3"})
	mk := func(name string, seed uint64, path []int) *Job {
		return &Job{
			Spec: workload.Spec{
				Name:    name,
				Profile: workload.Profile{Name: "gpt2x", ComputeTime: 1600 * sim.Millisecond, CommBytes: 1250 * units.MB},
				Seed:    seed,
			},
			Path: path,
		}
	}
	jobs := []*Job{
		mk("shared-a", 1, []int{0, 1}),
		mk("shared-b", 2, []int{1, 2}),
		mk("alone", 3, []int{3}),
	}
	s := New(Config{Network: nw, Policy: MaxMin{}}, jobs)
	s.Run(30 * sim.Second)
	for _, j := range jobs {
		if j.Iterations() < 10 {
			t.Fatalf("job %s completed only %d iterations", j.Spec.Label(), j.Iterations())
		}
	}
	// The isolated job runs at its ideal period: 1.8s at 50 Gbps.
	ideal := jobs[2].Spec.Profile.IdealIterTime(cap)
	if got := jobs[2].AvgIterTime(2); got != ideal {
		t.Errorf("isolated job iterates at %v, want ideal %v", got, ideal)
	}
}

// TestSimNetworkValidation pins the constructor's network checks.
func TestSimNetworkValidation(t *testing.T) {
	nw := NewNetwork([]units.Rate{units.Rate(1e9)}, nil)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-network policy", func() {
		New(Config{Network: nw, Policy: WeightedShare{}}, []*Job{netJob("x", 1, []int{0})})
	})
	mustPanic("missing path", func() {
		New(Config{Network: nw, Policy: MaxMin{}}, []*Job{netJob("x", 1, nil)})
	})
	mustPanic("bad link index", func() {
		New(Config{Network: nw, Policy: MaxMin{}}, []*Job{netJob("x", 1, []int{3})})
	})
	mustPanic("max-min without a network", func() {
		New(Config{Capacity: units.Rate(1e9), Policy: MaxMin{}}, []*Job{netJob("x", 1, []int{0})})
	})
}

// refScratch is the working set of refMaxMin: per-link arrays over the
// whole fabric plus the candidate list, as the allocator kept them
// before it cached the link→flow incidence.
type refScratch struct {
	Load []float64
	WSum []float64
	Done []bool

	Frozen     []bool
	Weights    []float64
	Bottleneck []int

	cands []int
}

func (sc *refScratch) links(n int) {
	if cap(sc.Load) < n {
		sc.Load = make([]float64, n)
		sc.WSum = make([]float64, n)
		sc.Done = make([]bool, n)
	}
	sc.Load = sc.Load[:n]
	sc.WSum = sc.WSum[:n]
	sc.Done = sc.Done[:n]
}

func (sc *refScratch) flows(n int) {
	if cap(sc.Frozen) < n {
		sc.Frozen = make([]bool, n)
		sc.Weights = make([]float64, n)
		sc.Bottleneck = make([]int, n)
	}
	sc.Frozen = sc.Frozen[:n]
	sc.Weights = sc.Weights[:n]
	sc.Bottleneck = sc.Bottleneck[:n]
	for i := 0; i < n; i++ {
		sc.Frozen[i] = false
		sc.Bottleneck[i] = -1
	}
}

// refMaxMin is the reference progressive filling the incremental
// allocator must reproduce bit for bit: every round re-sums every
// unfrozen path, rescans every candidate link with one divide each and
// checks every unfrozen path for the bottleneck.
func refMaxMin(nw *Network, active []*Job, rates []units.Rate, sc *refScratch) {
	n := len(active)
	for i := range rates {
		rates[i] = 0
	}
	if n == 0 {
		return
	}
	nl := len(nw.Capacities)
	sc.links(nl)
	sc.flows(n)
	load, wsum, done := sc.Load, sc.WSum, sc.Done
	frozen, weights := sc.Frozen, sc.Weights

	// Clear the weight sums the previous call left behind (exactly the
	// previous candidate set, possibly beyond this call's nl when the
	// scratch served a larger fabric — the capacity view covers both),
	// then charge every active flow's weight along its path.
	wfull := sc.WSum[:cap(sc.WSum)]
	for _, l := range sc.cands {
		wfull[l] = 0
	}
	sc.cands = sc.cands[:0]
	for i, j := range active {
		if len(j.Path) == 0 {
			panicNoPath(j)
		}
		weights[i] = j.Weight()
	}
	for i, j := range active {
		for _, l := range j.Path {
			wsum[l] += weights[i]
		}
	}
	// Candidate links — those crossed by any active flow with positive
	// weight — in ascending index order, so the bottleneck tie-break
	// (lowest index first) is identical to a full scan: every skipped
	// link has wsum == 0 in this and every later round (weights are
	// non-negative and the unfrozen set only shrinks), so the full scan
	// would skip it too. Load and Done are cleared candidate-wise; the
	// rest of the fabric keeps stale values nothing below reads.
	for l := 0; l < nl; l++ {
		if wsum[l] > 0 {
			sc.cands = append(sc.cands, l)
			load[l] = 0
			done[l] = false
		}
	}
	cands := sc.cands

	for remaining, first := n, true; remaining > 0; {
		if first {
			first = false // round 1's weight sums were computed above
		} else {
			for _, l := range cands {
				wsum[l] = 0
			}
			for i, j := range active {
				if frozen[i] {
					continue
				}
				for _, l := range j.Path {
					wsum[l] += weights[i]
				}
			}
		}
		// The next bottleneck: least headroom per unit of unfrozen weight.
		bottleneck := -1
		var bottleneckFill float64
		for _, l := range cands {
			if done[l] || wsum[l] <= 0 {
				continue
			}
			fill := (float64(nw.Capacities[l]) - load[l]) / wsum[l]
			if fill < 0 {
				fill = 0 // float drift below zero headroom: freeze at 0
			}
			if bottleneck < 0 || fill < bottleneckFill {
				bottleneck, bottleneckFill = l, fill
			}
		}
		if bottleneck < 0 {
			// Only reachable if every remaining flow has zero weight on
			// every link (Σw = 0 everywhere): nothing left to fill.
			break
		}
		headroom := float64(nw.Capacities[bottleneck]) - load[bottleneck]
		if headroom < 0 {
			headroom = 0
		}
		for i, j := range active {
			if frozen[i] {
				continue
			}
			onBottleneck := false
			for _, l := range j.Path {
				if l == bottleneck {
					onBottleneck = true
					break
				}
			}
			if !onBottleneck {
				continue
			}
			// capacity·w/Σw ordering matches WeightedShare exactly when
			// the bottleneck is the flows' first (load 0, headroom = cap).
			r := headroom * weights[i] / wsum[bottleneck]
			rates[i] = units.Rate(r)
			frozen[i] = true
			sc.Bottleneck[i] = bottleneck
			remaining--
			for _, l := range j.Path {
				load[l] += r
			}
		}
		done[bottleneck] = true
	}
}

// setWeight gives a test job the constant weight w (the plain-TCP nil
// Agg for w = 1, as netJob does).
func setWeight(j *Job, w float64) {
	if w == 1 { //lint:allow simunits weight is a test constant; 1 selects the nil-Agg plain-TCP job exactly
		j.Agg = nil
		return
	}
	f := core.Linear(0, w)
	j.Agg = &f
}

// diffSource feeds the differential driver: a seeded RNG, or fuzz bytes
// that read as zeros once exhausted.
type diffSource struct {
	rng  *sim.RNG
	data []byte
}

func (s *diffSource) intn(n int) int {
	if s.rng != nil {
		return s.rng.Intn(n)
	}
	v := 0
	for k := n - 1; k > 0; k >>= 8 {
		v <<= 8
		if len(s.data) > 0 {
			v |= int(s.data[0])
			s.data = s.data[1:]
		}
	}
	return v % n
}

// diffWeight draws a weight: mostly inexact values in the paper's F
// range (so the order of every sum matters), plus exact 0, 1 and 2 and
// the occasional negative value.
func diffWeight(src *diffSource) float64 {
	switch src.intn(10) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return -0.75 + float64(src.intn(1<<20))/(1<<20)
	default:
		return 0.25 + 1.75*float64(src.intn(1<<20))/(1<<20)
	}
}

// diffFabric is one network and the jobs that may run on it.
type diffFabric struct {
	nw   *Network
	pool []*Job
}

func newDiffFabric(src *diffSource) diffFabric {
	sizes := []int{1, 2, 3, 7, 17, 63, 64, 65, 130}
	nl := sizes[src.intn(len(sizes))]
	// Capacities: independent draws, one value for every link, or two
	// values, as fat-trees have. The last two make links with equal rows
	// and equal capacities, which the incidence collapses to one.
	capacity := func() units.Rate { return units.Rate(float64(1+src.intn(1000)) * 1e8) }
	kind, c0, c1 := src.intn(3), capacity(), capacity()
	caps := make([]units.Rate, nl)
	for l := range caps {
		switch {
		case kind == 0:
			caps[l] = capacity()
		case kind == 1 || src.intn(2) == 0:
			caps[l] = c0
		default:
			caps[l] = c1
		}
	}
	fab := diffFabric{nw: NewNetwork(caps, nil)}
	// Some fabrics route every flow over link 0 only: one candidate.
	single := src.intn(6) == 0
	for i, n := 0, 1+src.intn(24); i < n; i++ {
		var path []int
		if single {
			path = []int{0}
		} else {
			perm := make([]int, nl)
			for p := range perm {
				perm[p] = p
			}
			pl := 1 + src.intn(6)
			if pl > nl {
				pl = nl
			}
			for p := 0; p < pl; p++ { // partial Fisher–Yates
				q := p + src.intn(nl-p)
				perm[p], perm[q] = perm[q], perm[p]
			}
			path = perm[:pl]
			switch src.intn(10) {
			case 0: // a path that lists one link twice
				path = append(path, path[src.intn(pl)])
			case 1: // a path that lists every link twice
				path = append(path, path...)
			}
		}
		fab.pool = append(fab.pool, netJob("d", diffWeight(src), path))
	}
	return fab
}

// diffCoverage counts the calls of a differential run whose incidence
// dropped a duplicate link, and those where a dropped link's row lists
// a flow twice.
type diffCoverage struct {
	collapsed, repeated int
}

// runDifferential drives one scratch through a call sequence over two
// fabrics — flows joining and leaving, weights changing under an
// unchanged active set, zero weights, network switches and fresh slices
// holding the same pointers — and requires every call to match
// refMaxMin bit for bit in rates and bottlenecks.
func runDifferential(t *testing.T, src *diffSource) (cov diffCoverage) {
	t.Helper()
	fabs := []diffFabric{newDiffFabric(src), newDiffFabric(src)}
	cur := 0
	var active []*Job
	var sc AllocScratch
	rates := make([]units.Rate, 0, 32)
	want := make([]units.Rate, 0, 32)
	steps := 1 + src.intn(64)
	for step := 0; step < steps; step++ {
		fab := fabs[cur]
		switch op := src.intn(8); {
		case op <= 1: // a pool job joins at a random position
			j := fab.pool[src.intn(len(fab.pool))]
			in := false
			for _, a := range active {
				in = in || a == j
			}
			if !in {
				k := src.intn(len(active) + 1)
				active = append(active, nil)
				copy(active[k+1:], active[k:])
				active[k] = j
			}
		case op == 2 && len(active) > 0: // a job leaves
			k := src.intn(len(active))
			active = append(active[:k], active[k+1:]...)
		case op == 3 && len(active) > 0: // same set, new weight
			setWeight(active[src.intn(len(active))], diffWeight(src))
		case op == 4 && len(active) > 0: // same set, a zero weight
			setWeight(active[src.intn(len(active))], 0)
		case op == 5: // switch networks with a fresh active subset
			cur = 1 - cur
			fab = fabs[cur]
			active = nil
			for _, j := range fab.pool {
				if src.intn(2) == 0 {
					active = append(active, j)
				}
			}
		case op == 6: // a new []*Job holding the same pointers
			active = append([]*Job(nil), active...)
		}
		rates = rates[:len(active)]
		want = want[:len(active)]
		var ref refScratch
		refMaxMin(fab.nw, active, want, &ref)
		MaxMin{}.Allocate(fab.nw, active, rates, &sc)
		for i := range active {
			if math.Float64bits(float64(rates[i])) != math.Float64bits(float64(want[i])) ||
				sc.Bottleneck[i] != ref.Bottleneck[i] {
				t.Fatalf("step %d, %d flows on %d links: flow %d got rate %v (bottleneck %d), reference %v (bottleneck %d)",
					step, len(active), len(fab.nw.Capacities), i,
					rates[i], sc.Bottleneck[i], want[i], ref.Bottleneck[i])
			}
		}
		if len(active) > 0 && len(sc.inc.links) < crossedLinks(active) {
			cov.collapsed++
			if repeatDropped(active, sc.inc.pos) {
				cov.repeated++
			}
		}
	}
	return cov
}

// crossedLinks counts the distinct links the active paths cross.
func crossedLinks(active []*Job) int {
	seen := map[int]bool{}
	for _, j := range active {
		for _, l := range j.Path {
			seen[l] = true
		}
	}
	return len(seen)
}

// repeatDropped reports whether the incidence dropped a link that some
// active path lists twice.
func repeatDropped(active []*Job, pos []int32) bool {
	for _, j := range active {
		for a, l := range j.Path {
			for _, l2 := range j.Path[a+1:] {
				if l2 == l && pos[l] < 0 {
					return true
				}
			}
		}
	}
	return false
}

// TestMaxMinDifferential checks the incremental allocator against the
// full-rescan reference over seeded random fabrics and call sequences,
// and that the draws exercise the duplicate-link collapse, rows that
// list a flow twice included.
func TestMaxMinDifferential(t *testing.T) {
	var cov diffCoverage
	for seed := uint64(0); seed < 400; seed++ {
		c := runDifferential(t, &diffSource{rng: sim.NewRNGAt(11, seed)})
		cov.collapsed += c.collapsed
		cov.repeated += c.repeated
	}
	if cov.collapsed == 0 || cov.repeated == 0 {
		t.Errorf("%d calls collapsed duplicate links, %d of them a link listed twice; want both > 0",
			cov.collapsed, cov.repeated)
	}
}

// FuzzMaxMinDifferential runs the same differential over fuzzer-chosen
// fabrics and call sequences.
func FuzzMaxMinDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x20\x11\x03\x00\x40\x01\x07\x02\x05\x06\x03"))
	// A uniform-capacity 7-link fabric whose four paths overlap, two of
	// them listing every link twice, with a zero and a negative weight;
	// then a two-capacity 3-link fabric with two one-flow links of equal
	// capacity. The call sequence joins all four, changes weights under
	// the same set, switches fabrics and back, and drops a flow.
	f.Add([]byte("\x03\x01\x00\x09\x00\x09\x01\x03" +
		"\x02\x00\x00\x00\x01\x05\x10\x00\x00" +
		"\x01\x00\x00\x05\x00" +
		"\x02\x02\x02\x02\x01\x03\x08\x00\x00" +
		"\x05\x00\x00\x00\x00\x00\x00\x05\x01" +
		"\x02\x02\x00\x03\x00\x04\x00\x01\x01\x01\x01" +
		"\x02\x00\x00\x05\x02\x00\x00\x05\x01" +
		"\x20\x00\x00\x00\x01\x00\x00\x02\x02\x00\x03\x01" +
		"\x03\x00\x02\x04\x02\x06\x05\x00\x00\x07\x05\x00\x00\x00\x00\x02\x01"))
	// A two-capacity 64-link fabric, alternating capacities, with 24
	// flows; the arithmetic tail draws their paths and weights, the
	// second fabric and the calls.
	tail := make([]byte, 512)
	for i := range tail {
		tail[i] = byte(i * 37 % 251)
	}
	f.Add(append([]byte("\x06\x02\x01\x00\x02\x00"+strings.Repeat("\x00\x01", 32)+"\x01\x17"), tail...))
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, &diffSource{data: data})
	})
}

// TestPolicyAllocFree pins the allocation budget of every policy: zero
// allocations per Allocate call, on an unchanged active set and on one
// that churns every call once the scratch has grown. MaxMin runs on the
// fat-tree snapshot; the single-link policies run the snapshot's jobs on
// one link, as a Sim without a Network would.
func TestPolicyAllocFree(t *testing.T) {
	fabric, jobs := fatTreeSnapshot()
	link := oneLink(100 * units.Gbps)
	for _, c := range []struct {
		p  Policy
		nw *Network
	}{
		{WeightedShare{}, link},
		{SRPT{}, link},
		{LAS{}, link},
		{PIAS{Thresholds: []int64{int64(100 * units.MB), int64(1000 * units.MB)}}, link},
		{MaxMin{}, fabric},
	} {
		t.Run(c.p.Name(), func(t *testing.T) {
			var sc AllocScratch
			rates := make([]units.Rate, len(jobs))
			if got := testing.AllocsPerRun(100, func() {
				c.p.Allocate(c.nw, jobs, rates, &sc)
			}); got != 0 {
				t.Errorf("unchanged active set: %v allocs per call, want 0", got)
			}
			a, b := jobs[:len(jobs)-1], jobs[1:]
			churn := func() {
				c.p.Allocate(c.nw, a, rates[:len(a)], &sc)
				c.p.Allocate(c.nw, b, rates[:len(b)], &sc)
			}
			churn()
			if got := testing.AllocsPerRun(100, churn); got != 0 {
				t.Errorf("churned active set: %v allocs per call pair, want 0", got)
			}
		})
	}
}

// fatTreeSnapshot is a frozen k=8 fat-tree (768 directed links) with 23
// active flows between random host pairs on their ECMP paths, weighted
// across the paper's F range.
func fatTreeSnapshot() (*Network, []*Job) {
	fab := netsim.NewFatTree(8, 100*units.Gbps, 100*units.Gbps)
	caps := make([]units.Rate, len(fab.Links()))
	for l, fl := range fab.Links() {
		caps[l] = fl.Capacity
	}
	nw := NewNetwork(caps, nil)
	rng := sim.NewRNGAt(5, 0)
	hosts := fab.Hosts()
	jobs := make([]*Job, 23)
	for i := range jobs {
		src := hosts[rng.Intn(len(hosts))]
		dst := src
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		jobs[i] = netJob("f", 0.25+1.75*rng.Float64(), fab.Path(src, dst, rng.Uint64()))
	}
	return nw, jobs
}

// TestMaxMinFatTreeWork pins the allocator's work on the fat-tree
// snapshot as exact counts: the links the 23 paths cross, the positions
// left after duplicate links collapse, and the filling rounds. Every
// round freezes at least one flow on a bottleneck no other round uses,
// so the rounds are the distinct bottleneck links. A duplicate never
// wins a round, so the collapse leaves the rounds as they were.
func TestMaxMinFatTreeWork(t *testing.T) {
	nw, jobs := fatTreeSnapshot()
	var sc AllocScratch
	rates := make([]units.Rate, len(jobs))
	MaxMin{}.Allocate(nw, jobs, rates, &sc)
	bottlenecks := map[int]bool{}
	for _, l := range sc.Bottleneck {
		bottlenecks[l] = true
	}
	got := [3]int{crossedLinks(jobs), len(sc.inc.links), len(bottlenecks)}
	if want := [3]int{122, 29, 18}; got != want {
		t.Errorf("crossed links, positions, rounds = %v, want %v", got, want)
	}
}

// BenchmarkMaxMinFatTree times one allocator call on the frozen fat-tree
// snapshot with an unchanged active set, which reuses the cached
// incidence. About 85% of the calls in a fluid-fattree run see the
// active set of the call before; BenchmarkMaxMinFatTreeChurn prices
// the others.
func BenchmarkMaxMinFatTree(b *testing.B) {
	nw, jobs := fatTreeSnapshot()
	var sc AllocScratch
	rates := make([]units.Rate, len(jobs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxMin{}.Allocate(nw, jobs, rates, &sc)
	}
}

// BenchmarkMaxMinFatTreeChurn times one allocator call on the fat-tree
// snapshot when the active set differs from the last call's, so every
// call rebuilds and collapses the incidence: calls alternate between
// the snapshot without its last flow and without its first.
func BenchmarkMaxMinFatTreeChurn(b *testing.B) {
	nw, jobs := fatTreeSnapshot()
	sets := [2][]*Job{jobs[:len(jobs)-1], jobs[1:]}
	var sc AllocScratch
	rates := make([]units.Rate, len(jobs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		active := sets[i&1]
		MaxMin{}.Allocate(nw, active, rates[:len(active)], &sc)
	}
}
