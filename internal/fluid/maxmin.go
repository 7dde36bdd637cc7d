package fluid

import (
	"fmt"

	"mltcp/internal/units"
)

// Network describes a multi-link fabric for the fluid simulator: one
// capacity per directed link. Jobs carry a Path of link indices; the
// MaxMin policy allocates rates so every flow is bottlenecked somewhere
// on its own path rather than on one global link.
type Network struct {
	// Capacities[l] is link l's rate.
	Capacities []units.Rate
	// Names[l] optionally labels link l for telemetry and reports (may be
	// nil; when set it must match Capacities in length).
	Names []string
}

// NewNetwork builds a Network from parallel capacity and name slices.
func NewNetwork(capacities []units.Rate, names []string) *Network {
	if len(capacities) == 0 {
		panic("fluid: network needs at least one link")
	}
	if names != nil && len(names) != len(capacities) {
		panic("fluid: network names must match capacities")
	}
	return &Network{Capacities: capacities, Names: names}
}

// MaxMin is the weighted max-min allocator: progressive filling
// (water-filling) where each flow's level rises in proportion to its
// Weight() until some link on its path saturates. On a single shared
// link this reduces bit-for-bit to WeightedShare — every flow's one
// bottleneck is that link and its rate is capacity·w/Σw computed by the
// same expression — which is what keeps the legacy dumbbell golden
// traces byte-identical under the new allocator. It reads job paths, so
// a Sim accepts it only with a Config.Network.
type MaxMin struct{}

// Name implements Policy.
func (MaxMin) Name() string { return "maxmin" }

// Allocate implements Policy by progressive filling; every active job
// must carry a Path into nw. Each round finds the link that saturates
// first — the minimum of headroom/Σweights over links still carrying
// unfrozen flows — freezes every unfrozen flow crossing it at its
// weighted share of the remaining headroom, and charges those rates to
// every link on the frozen flows' paths. Ties break toward the lowest link index, so the
// allocation is a pure function of (network, active jobs).
//
// The work tracks what changed. The link→flow incidence is cached in
// sc and rebuilt only when the network or the active jobs change (see
// AllocScratch for the cache contract); it keeps one representative of
// each class of crossed links with the same flows and capacity, since
// the others can never be the bottleneck (see incidence). A call
// evaluates each weight once and each representative's Σw and fill
// level once; a round then refreshes only the links its newly frozen
// flows cross, and a tournament tree over the representatives yields
// the next bottleneck.
// Every link sum adds its unfrozen flows' weights in ascending flow
// order and every charge lands in freezing order, exactly as a full
// rescan per round would, so the rates are bit-identical to it.
//
// The result satisfies the allocator invariants pinned by maxmin_test.go:
// per-link conservation, at least one saturated link on every flow's
// path, and rates proportional to weights among flows sharing a
// bottleneck. The scratch records each flow's freezing link in
// sc.Bottleneck.
//
//mltcp:hot
func (MaxMin) Allocate(nw *Network, active []*Job, rates []units.Rate, sc *AllocScratch) {
	n := len(active)
	for i := range rates {
		rates[i] = 0
	}
	if n == 0 {
		return
	}
	inc := &sc.inc
	if !inc.matches(nw, active) {
		inc.build(nw, active)
	}
	sc.flows(n)
	frozen, weights := sc.Frozen, sc.Weights
	for i, j := range active {
		weights[i] = j.Weight()
	}

	m := len(inc.links)
	size := 1
	for size < m {
		size <<= 1
	}
	sc.positions(m, size)
	load, wsum, fill, live, tree := sc.load, sc.wsum, sc.fill, sc.live, sc.tree
	caps, links := nw.Capacities, inc.links
	rowStart, rowFlow := inc.rowStart, inc.rowFlow

	// Round one: every position's Σw over all active flows. Only
	// links with Σw > 0 now are ever bottleneck candidates.
	for p := 0; p < m; p++ {
		var s float64
		for _, f := range rowFlow[rowStart[p]:rowStart[p+1]] {
			s += weights[f]
		}
		wsum[p], load[p], live[p] = s, 0, s > 0
		tree[size+p] = -1
		if s > 0 {
			fill[p] = fillLevel(caps[links[p]], 0, s)
			tree[size+p] = int32(p)
		}
	}
	for v := size + m; v < 2*size; v++ {
		tree[v] = -1
	}
	for v := size - 1; v >= 1; v-- {
		tree[v] = winner(tree[2*v], tree[2*v+1], fill)
	}

	for remaining := n; remaining > 0; {
		b := tree[1]
		if b < 0 {
			// Only reachable if every remaining flow has zero weight on
			// every link (Σw = 0 everywhere): nothing left to fill.
			break
		}
		bottleneck := links[b]
		headroom := float64(caps[bottleneck]) - load[b]
		if headroom < 0 {
			headroom = 0
		}
		touched := sc.touched[:0]
		for _, f := range rowFlow[rowStart[b]:rowStart[b+1]] {
			if frozen[f] {
				continue
			}
			// capacity·w/Σw ordering matches WeightedShare exactly when
			// the bottleneck is the flows' first (load 0, headroom = cap).
			r := headroom * weights[f] / wsum[b]
			rates[f] = units.Rate(r)
			frozen[f] = true
			sc.Bottleneck[f] = bottleneck
			remaining--
			for _, p := range inc.pathPos[inc.pathOff[f]:inc.pathOff[f+1]] {
				load[p] += r
				if !sc.mark[p] {
					sc.mark[p] = true
					touched = append(touched, p)
				}
			}
		}
		sc.touched = touched
		live[b] = false
		replay(tree, size, b, -1, fill)
		// Refresh the links the freezes charged: Σw over their unfrozen
		// flows in ascending order, and the fill level. Every other
		// link's flows, sum and load are unchanged.
		for _, p := range touched {
			sc.mark[p] = false
			if !live[p] {
				continue
			}
			var s float64
			for _, f := range rowFlow[rowStart[p]:rowStart[p+1]] {
				if !frozen[f] {
					s += weights[f]
				}
			}
			wsum[p] = s
			leaf := int32(-1)
			if s > 0 {
				fill[p] = fillLevel(caps[links[p]], load[p], s)
				leaf = p
			}
			replay(tree, size, p, leaf, fill)
		}
	}
}

// fillLevel is a link's fill level: how far its unfrozen flows' level
// can rise per unit of weight before the link saturates. Float drift
// below zero headroom freezes at 0.
func fillLevel(capacity units.Rate, load, wsum float64) float64 {
	fill := (float64(capacity) - load) / wsum
	if fill < 0 {
		fill = 0
	}
	return fill
}

// winner plays one tournament match between positions a and b (-1 is an
// empty slot), with a below b. The lower fill wins and a tie goes to a,
// which is the first-minimum rule of an ascending linear scan.
func winner(a, b int32, fill []float64) int32 {
	if b < 0 {
		return a
	}
	if a < 0 || fill[b] < fill[a] {
		return b
	}
	return a
}

// replay sets position p's leaf and replays the matches on its path to
// the root. It stops at the first node whose winner is unchanged and is
// not p itself: above it every match sees the same players with the
// same fill levels.
func replay(tree []int32, size int, p, leaf int32, fill []float64) {
	v := size + int(p)
	tree[v] = leaf
	for v > 1 {
		v >>= 1
		w := winner(tree[2*v], tree[2*v+1], fill)
		if w == tree[v] && w != p {
			return
		}
		tree[v] = w
	}
}

// panicNoPath keeps the panic formatting (whose fmt arguments box) out
// of the //mltcp:hot allocator body.
func panicNoPath(j *Job) {
	panic(fmt.Sprintf("fluid: job %s has no path", j.Spec.Label()))
}
