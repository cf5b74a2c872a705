package lint

import (
	"go/ast"
	"go/types"
)

// ShardConfine polices the PDES ownership split PR 8 rests on: shard
// workers run concurrently and may touch only shard-local state (their
// machine, their engine, their staging buffers) plus the shared interner
// through its read-mostly API (Intern/Lookup/LineAt); everything the
// coordinator owns — the global noc.Mesh, the interner's lifecycle
// mutators, and the Machine's shard-wiring fields — is written only at
// the serial edges (Coordinator.Reset, Machine.resetShard, commit).
// A worker that reaches coordinator state races another shard and breaks
// the bit-identity contract in the worst way: nondeterministically.
//
// Three rules:
//
//  1. In functions marked //puno:worker (the shard-worker entry paths),
//     any use of a *pdes.Coordinator or noc.Mesh value is flagged —
//     workers hand remote sends to the xsend hook and cross-shard
//     deliveries to InjectDeliver; they never see the mesh.
//  2. Calls to the shared interner's lifecycle mutators
//     (Interner.Grow/Reset/SetShared) are flagged outside the serial-edge
//     functions that carry a "shardconfine/interner" row in the
//     exemptions table; both run strictly before any worker goroutine
//     exists.
//  3. Writes to the Machine's shard-wiring fields (lo, hi, xsend, it,
//     ownIt) are flagged outside the one function with a
//     "shardconfine/wiring" row, Machine.resetShard.
//
// Test files are exempt.
var ShardConfine = &Analyzer{
	Name: "shardconfine",
	Doc:  "confine PDES shard workers to shard-local state and blessed APIs",
	Run:  runShardConfine,
}

// machineWiringFields are the Machine fields only resetShard may write.
var machineWiringFields = map[string]bool{
	"lo": true, "hi": true, "xsend": true, "it": true, "ownIt": true,
}

func runShardConfine(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if pass.isWorkerFunc(fd) {
				checkWorkerBody(pass, fd)
			}
			if !exempt("shardconfine/interner", fn) {
				checkInternerMutators(pass, fd)
			}
			if !exempt("shardconfine/wiring", fn) {
				checkWiringWrites(pass, fd)
			}
		}
	}
	return nil, nil
}

// isCoordinatorState reports whether t is coordinator-owned by type:
// *pdes.Coordinator (or the fixture's Coordinator) or the global noc.Mesh.
func isCoordinatorState(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	name, pkg := named.Obj().Name(), named.Obj().Pkg().Name()
	switch {
	case name == "Coordinator" && (pkg == "pdes" || pkg == "shardconfine"):
		return "the PDES coordinator", true
	case name == "Mesh" && (pkg == "noc" || pkg == "shardconfine"):
		return "the global mesh", true
	}
	return "", false
}

// checkWorkerBody flags coordinator-owned values and interner mutators
// inside a //puno:worker function.
func checkWorkerBody(pass *Pass, fd *ast.FuncDecl) {
	reported := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || reported[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		what, coord := isCoordinatorState(v.Type())
		if !coord {
			return true
		}
		reported[obj] = true
		pass.Reportf(id.Pos(),
			"worker function %s touches %s (%s), which is coordinator-owned; route remote sends through xsend and cross-shard deliveries through InjectDeliver", fd.Name.Name, what, id.Name)
		return true
	})
}

// internerMutator resolves call to (*mem.Interner).Grow/Reset/SetShared
// (or the fixture interner's), returning the method name.
func internerMutator(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Grow" && name != "Reset" && name != "SetShared" {
		return "", false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return "", false
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	if named.Obj().Name() != "Interner" || named.Obj().Pkg().Name() != "mem" {
		return "", false
	}
	return name, true
}

// checkInternerMutators flags Grow/Reset/SetShared calls on an interner
// outside the blessed serial-edge functions. The interner package itself
// is exempt: the methods have to live somewhere.
func checkInternerMutators(pass *Pass, fd *ast.FuncDecl) {
	if pass.Pkg.Name() == "mem" {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, ok := internerMutator(pass, call)
		if !ok {
			return true
		}
		pass.Reportf(call.Pos(),
			"Interner.%s called in %s, outside the blessed serial edges (Coordinator.Reset, Machine.resetShard); workers may only Intern/Lookup/LineAt the shared interner", name, fd.Name.Name)
		return true
	})
}

// checkWiringWrites flags assignments to Machine shard-wiring fields
// outside resetShard.
func checkWiringWrites(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || !machineWiringFields[sel.Sel.Name] {
				continue
			}
			selection, ok := pass.TypesInfo.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				continue
			}
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok || named.Obj().Name() != "Machine" || named.Obj().Pkg() == nil {
				continue
			}
			if pkg := named.Obj().Pkg().Name(); pkg != "machine" && pkg != "shardconfine" {
				continue
			}
			pass.Reportf(sel.Pos(),
				"Machine.%s is shard wiring and may only be written by resetShard; %s must not rewire a machine mid-run", sel.Sel.Name, fd.Name.Name)
		}
		return true
	})
}
