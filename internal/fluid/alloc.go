package fluid

import (
	"math/bits"
	"slices"

	"mltcp/internal/units"
)

// AllocScratch is the reusable working set for Policy.Allocate. The Sim
// owns one and passes it to every call, so steady-state allocation
// decisions touch only flat arrays and allocate nothing. The slices grow
// to the simulation's link and flow counts once and are then recycled.
//
// The max-min allocator also caches the link→flow incidence of its last
// active set here. The cache is keyed on the *Network and on the
// identity of the active jobs — the same *Job pointers in the same
// order, whether or not the []*Job is the same slice — and is rebuilt
// whenever either changes. Job weights are read afresh on every call.
// The incidence depends on link capacities (links with equal capacities
// and flow sets share one entry), so a Network must not change once a
// Sim holds it, and a job's Path must not change after fluid.New has
// validated it: a cache hit trusts the paths and capacities it indexed
// when the active set was last seen.
type AllocScratch struct {
	// Per-flow (length = number of active jobs):
	Frozen     []bool
	Weights    []float64
	Bottleneck []int // link that froze each flow (-1 while unfrozen / single-link)

	inc incidence

	// Per incidence position (one representative link) and reset by every
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
// sparse row form, over one representative per class of crossed links.
// A class is the crossed links with the same row — the same flows,
// repeats included — and the same capacity; its representative is its
// lowest link. Links of one class always carry the same Σw, the same
// charges in the same order and so the same fill, so a duplicate could
// only ever tie its representative and lose the lower-index tie-break:
// dropping it changes no rate and no bottleneck. Representatives are
// numbered by position in ascending link order, so "lowest position"
// and "lowest link index" are the same tie-break.
type incidence struct {
	nw   *Network
	jobs []*Job // the active set this incidence describes

	links    []int   // links[p]: the representative at position p, ascending
	rowStart []int32 // flows crossing position p: rowFlow[rowStart[p]:rowStart[p+1]]
	rowFlow  []int32 // ascending flow indices; a path listing a link twice lists the flow twice
	pathOff  []int32 // positions on flow i's path: pathPos[pathOff[i]:pathOff[i+1]]
	pathPos  []int32 // in path order, representatives only

	pos   []int32  // link → position (-1 for a dropped duplicate), meaningful only for crossed links
	seen  []uint64 // link bitmap; all zero between builds
	next  []int32  // row cursors while filling rowFlow
	head  []int32  // flow → newest representative whose row starts with that flow, or -1
	chain []int32  // position → next older representative with the same first flow, or -1
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

// build indexes the active paths: the rows of every crossed link, then
// the collapse to one representative per class. Its cost is proportional
// to the total path length plus one bitmap word per 64 links, and to the
// row comparisons of the collapse, and it runs only when the active set
// or the network changes.
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

	inc.rowStart = resize(inc.rowStart, m+1)
	for p := range inc.rowStart {
		inc.rowStart[p] = 0
	}
	for _, j := range active {
		for _, l := range j.Path {
			inc.rowStart[inc.pos[l]+1]++
		}
	}
	for p, sum := 0, int32(0); p < m; p++ {
		sum += inc.rowStart[p+1]
		inc.rowStart[p+1] = sum
	}
	// Filling rows flow by flow leaves every row in ascending flow order.
	inc.next = append(inc.next[:0], inc.rowStart[:m]...)
	inc.rowFlow = resize(inc.rowFlow, nnz)
	for i, j := range active {
		for _, l := range j.Path {
			p := inc.pos[l]
			inc.rowFlow[inc.next[p]] = int32(i)
			inc.next[p]++
		}
	}

	inc.collapse(nw.Capacities, len(active))

	inc.pathOff = resize(inc.pathOff, len(active)+1)
	inc.pathPos = resize(inc.pathPos, nnz)
	k := int32(0)
	for i, j := range active {
		inc.pathOff[i] = k
		for _, l := range j.Path {
			if p := inc.pos[l]; p >= 0 {
				inc.pathPos[k] = p
				k++
			}
		}
	}
	inc.pathOff[len(active)] = k
	inc.pathPos = inc.pathPos[:k]
}

// collapse keeps the lowest position of every class of crossed links
// and compacts links, rowStart and rowFlow over the survivors in place,
// in ascending link order; pos maps each crossed link to its new
// position, or to -1 when it is a duplicate. A class's rows all start
// with the same flow, so candidates are chained by first flow, and a
// chain holds only links on that flow's path: a build makes at most
// Σ|path|² row comparisons, most of them of one-flow rows.
func (inc *incidence) collapse(caps []units.Rate, n int) {
	m := len(inc.links)
	inc.head = resize(inc.head, n)
	for i := range inc.head {
		inc.head[i] = -1
	}
	inc.chain = resize(inc.chain, m)
	k := int32(0) // representatives kept so far
	start := int32(0)
	for p := 0; p < m; p++ {
		end := inc.rowStart[p+1]
		row := inc.rowFlow[start:end]
		l := inc.links[p]
		r := inc.head[row[0]]
		for ; r >= 0; r = inc.chain[r] {
			if caps[inc.links[r]] == caps[l] && slices.Equal(inc.rowFlow[inc.rowStart[r]:inc.rowStart[r+1]], row) { //lint:allow simunits a class needs exactly equal capacities; only they give bit-identical fills
				break
			}
		}
		if r >= 0 {
			inc.pos[l] = -1
		} else {
			// Positions and row offsets only shrink, so every write lands
			// at or before the entry it replaces.
			inc.pos[l] = k
			inc.links[k] = l
			copy(inc.rowFlow[inc.rowStart[k]:], row)
			inc.rowStart[k+1] = inc.rowStart[k] + end - start
			inc.chain[k] = inc.head[row[0]]
			inc.head[row[0]] = k
			k++
		}
		start = end
	}
	inc.links = inc.links[:k]
	inc.rowStart = inc.rowStart[:k+1]
	inc.rowFlow = inc.rowFlow[:inc.rowStart[k]]
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// positions (re)sizes the per-position slices for m positions and a
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
