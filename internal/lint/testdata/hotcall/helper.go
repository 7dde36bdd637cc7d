// Fixture helper package for hotcall: lives outside the hot-path
// package set, so nothing here is reported directly — but Summarize
// records which of these functions allocate, and the //mltcp:hot fixture
// package must see those facts through its import.
package helper

import "fmt"

func sink(x any) {}

// Boxy boxes its argument into an interface parameter: FactAllocates
// with a leaf witness.
func Boxy(v int) { sink(v) }

// Wrapped allocates only transitively, via Boxy.
func Wrapped(v int) { Boxy(v) }

// Clean does arithmetic; no fact.
func Clean(v int) int { return v + 1 }

// Explode panics on every path: the fmt.Sprintf boxing is cold by
// construction, so no FactAllocates is published (the panic-helper
// exemption hot code relies on).
func Explode(v int) {
	panic(fmt.Sprintf("helper: exploded at %d", v))
}

// Justified boxes, but the site carries a reviewed suppression: the
// fact is killed at the leaf, so hot callers anywhere stay clean.
func Justified(v int) {
	sink(v) //lint:allow hotcall fixture: justified cold-path boxing
}
