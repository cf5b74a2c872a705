package lint

import (
	"go/ast"
	"strings"
)

// Directive grammar
//
// One //puno: comment exists. It is a bare marker on a function
// declaration — on its own line directly above the func keyword, or
// anywhere in its doc comment — and takes no argument:
//
//	//puno:hot   the function runs per event: hotalloc and the escape gate
//	             check it
//
// Any other //puno: comment is a puno-directive finding, the retired
// verbs `unordered`, `allow` and `worker` included: no comment exempts
// code from a check, only a row in the exemptions table does (exempt.go).

type dirKind uint8

const (
	dirHot       dirKind = iota // puno:hot
	dirMalformed                // any other //puno: comment
)

// directive is one parsed //puno: comment.
type directive struct {
	Kind    dirKind
	File    string
	Line    int
	Problem string // dirMalformed: what is wrong
}

const punoPrefix = "//puno:"

// Directives parses and caches every //puno: comment in the pass's files.
func (p *Pass) Directives() []directive {
	if p.dirBuilt {
		return p.directives
	}
	p.dirBuilt = true
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, punoPrefix) {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := parseDirective(c.Text)
				d.File, d.Line = pos.Filename, pos.Line
				p.directives = append(p.directives, d)
			}
		}
	}
	return p.directives
}

// parseDirective interprets the text of one //puno: comment.
func parseDirective(text string) directive {
	body := strings.TrimPrefix(text, punoPrefix)
	verb, rest := body, ""
	if i := strings.IndexAny(body, " \t—:"); i >= 0 {
		verb, rest = body[:i], body[i:]
	}
	var kind dirKind
	switch verb {
	case "hot":
		kind = dirHot
	default:
		return directive{Kind: dirMalformed, Problem: "unknown puno directive " + verb +
			": only //puno:hot exists, and no comment exempts code from a check — an exemption is a reviewed row in internal/lint's exemptions table"}
	}
	if strings.TrimSpace(rest) != "" {
		return directive{Kind: dirMalformed, Problem: "puno:" + verb + " takes no arguments"}
	}
	return directive{Kind: kind}
}

// markedInDoc reports whether a directive of the given kind appears anywhere
// in fd's doc comment block or directly above its func keyword, so
// //puno:hot behaves identically whether it sits on its own line or inside
// a doc comment.
func (p *Pass) markedInDoc(kind dirKind, fd *ast.FuncDecl) bool {
	at := p.Fset.Position(fd.Pos())
	docStart := at.Line
	if fd.Doc != nil {
		docStart = p.Fset.Position(fd.Doc.Pos()).Line
	}
	for _, d := range p.Directives() {
		if d.Kind == kind && d.File == at.Filename && d.Line >= docStart && d.Line <= at.Line {
			return true
		}
	}
	return false
}
