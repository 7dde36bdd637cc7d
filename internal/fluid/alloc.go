package fluid

import "math/bits"

// AllocScratch is the reusable working set for Policy.Allocate. The Sim
// owns one and passes it to every call, so steady-state allocation
// decisions touch only flat arrays and allocate nothing. The slices grow
// to the simulation's link and flow counts once and are then recycled.
//
// The max-min allocator also caches the link→flow incidence of its last
// active set here. The cache is keyed on the *Network and on the
// identity of the active jobs — the same *Job pointers in the same
// order, whether or not the []*Job is the same slice — and is rebuilt
// whenever either changes. Link capacities and job weights are read
// afresh on every call. A job's Path must not change after fluid.New
// has validated it: a cache hit trusts the paths it indexed when the
// active set was last seen.
type AllocScratch struct {
	// Per-flow (length = number of active jobs):
	Frozen     []bool
	Weights    []float64
	Bottleneck []int // link that froze each flow (-1 while unfrozen / single-link)

	inc incidence

	// Per crossed link, indexed by incidence position and reset by every
	// MaxMin.Allocate call:
	load []float64 // rate charged to the link by frozen flows
	wsum []float64 // Σ weight of the unfrozen flows crossing the link
	fill []float64 // max(0, (capacity-load)/wsum): the link's fill level
	live []bool    // still a candidate: Σw > 0 in round one and not yet a bottleneck
	mark []bool    // queued in touched this round

	// tree is a tournament over positions: tree[size+p] is p while p is
	// an eligible bottleneck (live with Σw > 0) and -1 otherwise; every
	// inner node holds the winner of its two children, the lower fill
	// with ties to the lower position. tree[1] is the next bottleneck.
	tree    []int32
	touched []int32 // positions a round's freezes charged
}

// incidence is the link→flow incidence of one active set in compressed
// sparse row form. The links the active paths cross are numbered by
// position in ascending link order, so "lowest position" and "lowest
// link index" are the same tie-break.
type incidence struct {
	nw   *Network
	jobs []*Job // the active set this incidence describes

	links    []int   // links[p]: the link at position p, ascending
	rowStart []int32 // flows crossing position p: rowFlow[rowStart[p]:rowStart[p+1]]
	rowFlow  []int32 // ascending flow indices; a path listing a link twice lists the flow twice
	pathOff  []int32 // positions on flow i's path: pathPos[pathOff[i]:pathOff[i+1]]
	pathPos  []int32 // in path order

	pos  []int32  // link → position, meaningful only for crossed links
	seen []uint64 // link bitmap; all zero between builds
	next []int32  // row cursors while filling rowFlow
}

// matches reports whether the incidence was built for exactly this
// network and active set.
func (inc *incidence) matches(nw *Network, active []*Job) bool {
	if inc.nw != nw || len(inc.jobs) != len(active) {
		return false
	}
	for i, j := range active {
		if inc.jobs[i] != j {
			return false
		}
	}
	return true
}

// build indexes the active paths. Its cost is proportional to the total
// path length plus one bitmap word per 64 links, and it runs only when
// the active set or the network changes.
func (inc *incidence) build(nw *Network, active []*Job) {
	nl := len(nw.Capacities)
	inc.nw = nw
	inc.jobs = append(inc.jobs[:0], active...)
	if words := (nl + 63) / 64; len(inc.seen) < words {
		inc.seen = make([]uint64, words)
	}
	inc.pos = resize(inc.pos, nl)

	nnz := 0
	for _, j := range active {
		if len(j.Path) == 0 {
			panicNoPath(j)
		}
		for _, l := range j.Path {
			inc.seen[l>>6] |= 1 << uint(l&63)
		}
		nnz += len(j.Path)
	}
	// Crossed links in ascending order, clearing the bitmap behind us.
	inc.links = inc.links[:0]
	for w, word := range inc.seen {
		if word == 0 {
			continue
		}
		inc.seen[w] = 0
		for ; word != 0; word &= word - 1 {
			l := w<<6 | bits.TrailingZeros64(word)
			inc.pos[l] = int32(len(inc.links))
			inc.links = append(inc.links, l)
		}
	}
	m := len(inc.links)

	inc.pathOff = resize(inc.pathOff, len(active)+1)
	inc.pathPos = resize(inc.pathPos, nnz)
	inc.rowStart = resize(inc.rowStart, m+1)
	for p := range inc.rowStart {
		inc.rowStart[p] = 0
	}
	k := int32(0)
	for i, j := range active {
		inc.pathOff[i] = k
		for _, l := range j.Path {
			p := inc.pos[l]
			inc.pathPos[k] = p
			inc.rowStart[p+1]++
			k++
		}
	}
	inc.pathOff[len(active)] = k
	for p := 0; p < m; p++ {
		inc.rowStart[p+1] += inc.rowStart[p]
	}
	// Filling rows flow by flow leaves every row in ascending flow order.
	inc.next = append(inc.next[:0], inc.rowStart[:m]...)
	inc.rowFlow = resize(inc.rowFlow, nnz)
	for i := range active {
		for _, p := range inc.pathPos[inc.pathOff[i]:inc.pathOff[i+1]] {
			inc.rowFlow[inc.next[p]] = int32(i)
			inc.next[p]++
		}
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// positions (re)sizes the per-position slices for m crossed links and a
// tournament of size leaves (a power of two ≥ m).
func (sc *AllocScratch) positions(m, size int) {
	sc.load = resize(sc.load, m)
	sc.wsum = resize(sc.wsum, m)
	sc.fill = resize(sc.fill, m)
	sc.live = resize(sc.live, m)
	sc.mark = resize(sc.mark, m)
	sc.tree = resize(sc.tree, 2*size)
}

// weights (re)sizes just the Weights slice and returns it. WeightedShare
// never reads Frozen or Bottleneck, so it skips the per-flow clear that
// flows performs for MaxMin.
func (sc *AllocScratch) weights(n int) []float64 {
	sc.Weights = resize(sc.Weights, n)
	return sc.Weights
}

// flows (re)sizes and clears the per-flow slices.
func (sc *AllocScratch) flows(n int) {
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
