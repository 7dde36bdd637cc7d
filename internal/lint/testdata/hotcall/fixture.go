// Fixture for the hotcall analyzer, type-checked under an impersonated
// mltcp/internal/sim path (hot-path scope) and importing the helper
// fixture package so cross-package facts are exercised.
package fixture

import (
	"fmt"

	"mltcp/internal/lint/helper"
)

type handler interface{ handle() }

type box struct{ n int }

func (box) handle() {}

func takes(h handler) {}

//mltcp:hot
func hotClosure(n int) func() int {
	f := func() int { return n } // want "closure literal in //mltcp:hot function hotClosure"
	return f
}

//mltcp:hot
func hotBoxing(h handler, v box) {
	takes(v)           // want "value of type .*box passed to interface parameter in //mltcp:hot function hotBoxing"
	takes(h)           // already an interface: no boxing
	takes(&v)          // pointer-shaped: converts without allocating
	fmt.Println(v.n)   // want "value of type int passed to interface parameter in //mltcp:hot function hotBoxing"
	_ = handler(v)     // want "conversion of .*box to interface .*handler in //mltcp:hot function hotBoxing"
	_ = handler(&v)    // pointer conversion: free
	_ = []handler{nil} // nil needs no boxing
	takes(nil)         // nil needs no boxing
}

//mltcp:hot
func hotJustified(v box) {
	takes(v) //lint:allow hotcall fixture: justified cold-path boxing
}

// coldFn has no //mltcp:hot marker: the same shapes pass untouched.
func coldFn() {
	_ = func() int { return 1 }
	takes(box{})
	fmt.Println(3)
}

func localSink(x any) {}

// localAlloc allocates in this package: in-package facts must propagate
// without any serialization round-trip.
func localAlloc(v int) { localSink(v) }

// localDeep reaches localAlloc through one more in-package hop.
func localDeep(v int) { localAlloc(v) }

//mltcp:hot
func hotLeaf(v int) {
	f := func() int { return v } // want "closure literal in //mltcp:hot function hotLeaf"
	_ = f
	localSink(v) // want "value of type int passed to interface parameter in //mltcp:hot function hotLeaf"
}

//mltcp:hot
func hotCrossPackage(v int) {
	helper.Boxy(v)    // want "//mltcp:hot function hotCrossPackage calls helper.Boxy, which allocates per call"
	helper.Wrapped(v) // want "//mltcp:hot function hotCrossPackage calls helper.Wrapped, which allocates per call"
	_ = helper.Clean(v)
	helper.Justified(v) // suppression at the leaf killed the fact: clean
	if v < 0 {
		helper.Explode(v) // panic helper: exempt, clean
	}
}

//mltcp:hot
func hotInPackage(v int) {
	localAlloc(v) // want "//mltcp:hot function hotInPackage calls fixture.localAlloc, which allocates per call"
	localDeep(v)  // want "//mltcp:hot function hotInPackage calls fixture.localDeep, which allocates per call"
}

//mltcp:hot
func hotJustifiedCall(v int) {
	helper.Boxy(v) //lint:allow hotcall fixture: justified cold call on a hot path
}

// coldCaller is unmarked: the same calls pass untouched.
func coldCaller(v int) {
	helper.Boxy(v)
	localAlloc(v)
	_ = func() int { return v }
}

// lookalikeSpace carries what gofmt makes of a plain //hot line. The
// function goes unchecked, and that is the finding.
//
// hot
func lookalikeSpace(v int) { localSink(v) } // want `function lookalikeSpace: doc line "// hot" is not the hot marker`

// lookalikeSpacedDirective is a directive spelled with a space.
//
// mltcp: hot
func lookalikeSpacedDirective(v int) { localSink(v) } // want `function lookalikeSpacedDirective: doc line "// mltcp: hot" is not the hot marker`

// notAMarker mentions the hot path in prose: clean.
func notAMarker(v int) { localSink(v) }
