package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `range` over a map in the deterministic engine packages:
// Go randomizes map iteration order per run, so any map walk whose body
// has order-dependent effects breaks the Workers=1-vs-N fingerprint
// contract. Loops with genuinely commutative bodies are annotated
// `//p3q:orderinvariant <reason>`. MapOrder also owns the directive
// grammar itself: an unknown //p3q: verb anywhere in the module is
// reported under its name (see verbs).
var MapOrder = &Analyzer{Name: "maporder", Run: runMapOrder}

func runMapOrder(pass *Pass) {
	deterministic := inScope(pass.Path, DeterministicScopes)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if _, isMap := t.Underlying().(*types.Map); !isMap || rs.Key == nil {
				// `for range m` binds nothing: the body runs len(m)
				// times identically, so order cannot leak.
				return true
			}
			if len(pass.directivesAt(rs.Pos(), orderInvariantVerb)) == 0 && deterministic {
				pass.Reportf(rs.Pos(), "iteration over map %s in deterministic package %s: iterate in canonical order (sorted keys or index order), or annotate the loop //p3q:%s <reason> if its body is commutative", typeString(t), pass.Path, orderInvariantVerb)
			}
			return true
		})
	}
}
