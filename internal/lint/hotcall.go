// HotCall: the interprocedural successor to hotalloc. The leaf half is
// identical — closure literals and interface boxing inside a //mltcp:hot
// function, reported with hotalloc's exact messages — so every finding
// hotalloc's fixtures pin is reproduced (the superset is proven by
// TestHotCallSupersetOfHotAlloc). On top, hotcall consults the fact
// store: a //mltcp:hot function calling a module function that carries
// FactAllocates — anywhere in the repo, any number of hops away — is
// flagged with the allocation's witness chain. A //lint:allow at the
// allocating leaf kills the fact and therefore every transitive
// finding, which keeps the audit at one justified marker per cold site.

package lint

import (
	"go/ast"
	"go/types"
)

// HotCall enforces the allocation-free discipline for //mltcp:hot functions
// across call boundaries.
var HotCall = &Analyzer{
	Name: "hotcall",
	Doc: `keep //mltcp:hot functions allocation-free, transitively

The leaf rules are hotalloc's: no closure literals, no value-to-
interface boxing inside a //mltcp:hot function. Additionally, calling a
module function whose fact store entry says it allocates per call
(directly or through its own callees) is flagged, with the witness
chain pointing at the root allocation. Justify genuinely cold sites
with //lint:allow hotcall at the allocating line — the suppression
removes the fact, so callers are cleared too.

The marker is the directive //mltcp:hot, which gofmt leaves alone. A
doc line that reads like a marker but is not one ("// hot", what gofmt
makes of a plain //hot) is flagged, since it silently leaves the
function unchecked.`,
	AppliesTo: isHotPathPackage,
	Run:       runHotCall,
}

func runHotCall(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if text, ok := lookalikeMarker(fd); ok {
				pass.Reportf(fd.Name.Pos(),
					"function %s: doc line %q is not the hot marker, so the function is not checked; write %s",
					fd.Name.Name, text, hotMarker)
			}
			if fd.Body == nil || !hotMarked(fd) {
				continue
			}
			reportAllocSites(pass, fd)

			selfKey := ""
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				selfKey = FuncKey(fn)
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					// The literal is already a leaf finding; its body
					// runs as a different function.
					return false
				case *ast.CallExpr:
					f := funcObj(pass.TypesInfo, n)
					if f == nil || !moduleFunc(f) || FuncKey(f) == selfKey {
						return true
					}
					fact := pass.Facts.Lookup(f)
					if fact.Flags.Has(FactAllocates) {
						pass.Reportf(n.Pos(),
							"//mltcp:hot function %s calls %s, which allocates per call (%s); make the callee allocation-free or lift the call off the hot path",
							fd.Name.Name, shortFuncName(f), fact.AllocWhy)
					}
				}
				return true
			})
		}
	}
	return nil
}
