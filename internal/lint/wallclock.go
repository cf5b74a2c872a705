package lint

import (
	"go/ast"
	"go/types"
)

// WallClock flags host-time and global-randomness escapes inside simulation
// packages: time.Now/time.Since/time.Until (simulated time comes from
// sim.Engine.Now) and any use of math/rand or math/rand/v2 (every random
// stream must be an explicitly seeded, component-owned *sim.RNG, or
// repeated runs of one config stop being bit-identical). cmd/ is exempt —
// wall-clock progress reporting there is host-side, not simulation state.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbid wall-clock time and global math/rand in simulation packages",
	Run:  runWallClock,
}

// wallClockFuncs are the forbidden functions of package time.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallClock(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"time.%s reads the wall clock; simulation time must come from sim.Engine.Now", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				pass.Reportf(sel.Pos(),
					"%s is forbidden in simulation packages; use a seeded, component-owned *sim.RNG", pn.Imported().Path())
			}
			return true
		})
	}
	return nil, nil
}
