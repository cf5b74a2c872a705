package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MsgLife guards the pooled-message lifetime contract PR 7 wrote down in
// internal/machine: a `*coherence.Msg` handed to a handler (or minted by
// Env.NewMsg) is returned to the pool the moment the handler returns, so
// any user that wants the message later must park a *copy* by value
// (`e.pending = append(e.pending, *m)`), never the pointer. A pointer
// parked into a struct field, package variable, slice/map element, or
// closure capture outlives the handler and silently aliases the pool: the
// next pooled send overwrites the parked message wholesale, and the
// corruption shows up runs later as a bit-determinism divergence.
//
// The analyzer flags stores whose destination outlives the enclosing
// function — a field (selector), an indexed element, or a package-level
// variable — when the stored value is or contains a *coherence.Msg; it
// also flags func literals that capture a *coherence.Msg declared outside
// the literal, since the closure may run after the handler returned.
// Copying by value (`*m`) never trips it: the dereferenced expression has
// value type Msg.
//
// The pool's own plumbing legitimately stores the pointers whose lifetimes
// it owns; such functions carry "msglife" rows in the exemptions table.
// Test files are exempt.
var MsgLife = &Analyzer{
	Name: "msglife",
	Doc:  "forbid parking pooled *coherence.Msg pointers past handler return",
	Run:  runMsgLife,
}

// isMsgPtr reports whether t is *coherence.Msg.
func isMsgPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Msg" && obj.Pkg() != nil && obj.Pkg().Name() == "coherence"
}

func runMsgLife(pass *Pass) (any, error) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); !exempt("msglife", fn) {
				checkMsgLifeBody(pass, fd)
			}
		}
	}
	return nil, nil
}

func checkMsgLifeBody(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if i >= len(x.Rhs) {
					break // y, z = f() — calls cannot produce a parked pointer store here
				}
				if !escapingDest(pass, lhs, x.Tok) {
					continue
				}
				reportMsgCarrier(pass, fd, x.Rhs[i])
			}
		case *ast.FuncLit:
			checkMsgCapture(pass, fd, x)
			// Keep walking: stores inside the literal still park past the
			// literal's own return.
		}
		return true
	})
}

// escapingDest reports whether an assignment destination outlives the
// enclosing function: a struct field or indexed element (selector/index),
// or a package-level variable. Plain locals — including := defines — die
// with the handler and are fine.
func escapingDest(pass *Pass, lhs ast.Expr, tok token.Token) bool {
	switch d := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		if tok == token.DEFINE {
			return false
		}
		v, ok := pass.TypesInfo.Uses[d].(*types.Var)
		return ok && v.Parent() == pass.Pkg.Scope() // package-level var
	case *ast.StarExpr:
		// *p = m overwrites the pointee in place; the pointer itself is
		// not being parked anywhere new.
		return false
	}
	return false
}

// reportMsgCarrier flags rhs if it is, or structurally contains, a
// *coherence.Msg value: the pointer itself, an append whose added elements
// carry one, or a composite literal with a *Msg-typed element (the staging
// idiom `append(sh.sends, send{msg: msg, …})`).
func reportMsgCarrier(pass *Pass, fd *ast.FuncDecl, rhs ast.Expr) {
	if call, ok := rhs.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "append") {
		for _, arg := range call.Args[1:] {
			reportMsgCarrier(pass, fd, arg)
		}
		return
	}
	if comp, ok := rhs.(*ast.CompositeLit); ok {
		for _, elt := range comp.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			reportMsgCarrier(pass, fd, elt)
		}
		return
	}
	t := pass.TypesInfo.TypeOf(rhs)
	if t == nil || !isMsgPtr(t) {
		return
	}
	pass.Reportf(rhs.Pos(),
		"pooled *coherence.Msg parked by pointer in %s outlives handler return and aliases the message pool; copy by value (*m) or route through the pool internals", fd.Name.Name)
}

// checkMsgCapture flags *coherence.Msg variables captured by a func
// literal: the closure can run after the handler returned the message to
// the pool. A *Msg that is the literal's own parameter or local is fine.
func checkMsgCapture(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || seen[obj] || !isMsgPtr(obj.Type()) {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
			return true // the literal's own parameter or local
		}
		seen[obj] = true
		pass.Reportf(id.Pos(),
			"closure in %s captures pooled *coherence.Msg %s, which is freed when the handler returns; copy the message by value before capturing", fd.Name.Name, id.Name)
		return true
	})
}
