package lint

import (
	"go/ast"
	"go/types"
)

// MapRange flags `for … range` over a map-typed value. Go randomizes map
// iteration order per range statement, so any map range whose order can
// reach simulation state or rendered output is a latent nondeterminism bug
// — the exact class PR 1 fixed in PUNO-Push's fireWakeups, where a map
// range randomized NoC send order. Simulation code keeps the data in a
// flat insertion-ordered structure with the map, if any, as an index
// (internal/htm's lineSet, core.TxLB). A function whose map iteration
// provably cannot leak its order — today only the interner's rebuild on
// growth — carries a "maprange" row in the exemptions table, which exempts
// its whole body.
//
// Test files are exempt: table-driven tests range over expectation maps and
// are off the simulation path by definition.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc:  "forbid nondeterministically-ordered map iteration in simulation packages",
	Run:  runMapRange,
}

func runMapRange(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fd, ok := n.(*ast.FuncDecl); ok {
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				return !exempt("maprange", fn)
			}
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Reportf(rs.For,
				"map iteration order is nondeterministic and can leak into simulation state; keep the data in a flat insertion-ordered structure with the map as an index (a function whose order provably cannot escape needs a reviewed row in internal/lint's exemptions table)")
			return true
		})
	}
	return nil, nil
}
