package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc covers the one per-event allocation the escape gate (escape.go)
// cannot see: inside a hot function, an append that grows a slice declared
// fresh in that function (`var s []T`, `s := []T{…}`, `s := make(…)`). The
// growth happens in runtime.growslice, which the compiler's escape
// diagnostics never mention, so `-gcflags=-m=2` is silent about it. Every
// other allocation shape — closure, make, new, &composite, a value boxed
// into an interface — the gate reports when it really reaches the heap and
// rightly ignores when the compiler proves it stack-bound; the escapegate
// fixture holds one escaping instance of each.
//
// A function is hot when it is annotated `//puno:hot` (the annotation may
// appear anywhere in the doc comment) or when it is an OnEvent method with
// the sim.Handler signature func(any, uint64) — the closure-free event
// dispatchers every simulation event funnels through. Appends to fields,
// parameters, and locals re-sliced from an existing buffer (the
// reusable-scratch idiom, `out := d.sharerScratch[:0]`) are allowed. Test
// files are exempt.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid growing a fresh function-local slice inside hot simulation functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !pass.isHotFunc(fd) {
				continue
			}
			fresh := collectFreshLocalSlices(pass, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
					return true
				}
				id, ok := call.Args[0].(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pass.TypesInfo.Uses[id]; obj != nil && fresh[obj] {
					pass.Reportf(call.Pos(), "append grows function-local slice %s, allocating per event in hot function %s; append into a reusable field or parameter instead", id.Name, fd.Name.Name)
				}
				return true
			})
		}
	}
	return nil, nil
}

// isHotFunc reports whether fd is hot: the scope of hotalloc and of the
// escape gate.
func (p *Pass) isHotFunc(fd *ast.FuncDecl) bool {
	return isHandlerOnEvent(p, fd) || p.markedInDoc(dirHot, fd)
}

// isHandlerOnEvent reports whether fd is a method named OnEvent with the
// sim.Handler signature (arg any, word uint64).
func isHandlerOnEvent(p *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || fd.Name.Name != "OnEvent" {
		return false
	}
	obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	first, ok := sig.Params().At(0).Type().Underlying().(*types.Interface)
	if !ok || !first.Empty() {
		return false
	}
	second, ok := sig.Params().At(1).Type().Underlying().(*types.Basic)
	return ok && second.Kind() == types.Uint64
}

// collectFreshLocalSlices finds slice variables declared inside body whose
// initializer necessarily allocates on growth: `var s []T`, `s := []T{…}`,
// or `s := make(…)`. Locals re-sliced from an existing buffer
// (`s := d.scratch[:0]`) are the reusable-scratch idiom and stay allowed.
func collectFreshLocalSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	mark := func(id *ast.Ident, init ast.Expr) {
		if id.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if freshSliceInit(pass, init) {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					mark(id, s.Rhs[i])
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					mark(name, init)
				}
			}
		}
		return true
	})
	return fresh
}

// freshSliceInit reports whether init makes the declared slice a fresh
// allocation site: absent (nil), a nil literal, a composite literal, or a
// make call.
func freshSliceInit(pass *Pass, init ast.Expr) bool {
	switch x := init.(type) {
	case nil:
		return true
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		return isBuiltin(pass, x.Fun, "make")
	default:
		return false
	}
}

// isBuiltin reports whether fun denotes the named Go builtin.
func isBuiltin(pass *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isB
}
