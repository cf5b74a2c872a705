package lint

import (
	"go/ast"
	"strings"
)

// Directive grammar
//
// Two //puno: comments exist. Both are bare markers on a function
// declaration — on their own line directly above the func keyword, or
// anywhere in its doc comment — and neither takes an argument:
//
//	//puno:hot      the function runs per event: hotalloc and the escape
//	                gate check it
//	//puno:worker   the function is a PDES shard-worker path: shardconfine
//	                checks it
//
// Any other //puno: comment is a puno-directive finding, the retired
// per-site verbs `unordered` and `allow` included: no comment exempts
// code from a check, only a row in the exemptions table does (exempt.go).

type dirKind uint8

const (
	dirHot       dirKind = iota // puno:hot
	dirWorker                   // puno:worker
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
	case "worker":
		kind = dirWorker
	default:
		return directive{Kind: dirMalformed, Problem: "unknown puno directive " + verb +
			": only //puno:hot and //puno:worker exist, and no comment exempts code from a check — an exemption is a reviewed row in internal/lint's exemptions table"}
	}
	if strings.TrimSpace(rest) != "" {
		return directive{Kind: dirMalformed, Problem: "puno:" + verb + " takes no arguments"}
	}
	return directive{Kind: kind}
}

// markedInDoc reports whether a directive of the given kind appears anywhere
// in fd's doc comment block or directly above its func keyword. isHotFunc
// and isWorkerFunc share this so //puno:hot and //puno:worker behave
// identically whether they sit on their own line or inside a doc comment.
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
