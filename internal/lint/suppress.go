package lint

import (
	"go/ast"
	"strings"
)

// Suppression grammar
//
// A finding is suppressed by a //puno: directive carrying a written reason.
// The directive sits either at the end of the offending line or on its own
// line immediately above it:
//
//	//puno:unordered — pure count; the result is independent of order
//	for _, e := range d.entries { ... }
//
//	n.total++ //puno:allow wallclock — host-side progress log, not sim state
//
// Forms:
//
//	//puno:unordered — <reason>     sugar for //puno:allow maprange
//	//puno:allow <analyzer> — <reason>
//	//puno:hot                      marks the next function declaration hot
//	                                (checked by hotalloc and the escape
//	                                gate); takes no reason
//	//puno:worker                   marks the next function declaration as a
//	                                PDES shard-worker path (checked by
//	                                shardconfine); takes no reason
//
// The reason separator is an em dash, "--", or ":". A suppression without a
// reason does not suppress anything and is itself reported as a finding, as
// is a directive with an unknown verb. //puno:unordered and //puno:allow
// are forbidden outright in internal/sim, internal/noc, internal/machine,
// internal/mem, and internal/pdes (driver.go enforces this); the reviewed
// structural allowlists keyed by types.Func.FullName are the only
// exemption mechanism in those packages.

type dirKind uint8

const (
	dirSuppress  dirKind = iota // unordered / allow
	dirHot                      // puno:hot
	dirWorker                   // puno:worker
	dirMalformed                // unparseable //puno: comment
)

// directive is one parsed //puno: comment.
type directive struct {
	Kind      dirKind
	Analyzer  string // suppressions: which analyzer is silenced
	Reason    string // suppressions: the written justification ("" = missing)
	File      string
	Line      int    // line the comment itself is on
	AppliesTo int    // line the directive governs (same line or the one below)
	Problem   string // dirMalformed: what is wrong
}

const punoPrefix = "//puno:"

// Directives parses and caches every //puno: comment in the pass's files.
func (p *Pass) Directives() []directive {
	if p.dirBuilt {
		return p.directives
	}
	p.dirBuilt = true
	for i, f := range p.Files {
		p.directives = append(p.directives, parseDirectives(p, i, f)...)
	}
	return p.directives
}

func parseDirectives(p *Pass, fileIdx int, f *ast.File) []directive {
	var out []directive
	src := p.Src[fileIdx]
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, punoPrefix) {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			d := parseDirective(c.Text)
			d.File = pos.Filename
			d.Line = pos.Line
			// A directive alone on its line governs the line below; an
			// end-of-line directive governs its own line.
			if commentIsAlone(src, pos.Offset) {
				d.AppliesTo = pos.Line + 1
			} else {
				d.AppliesTo = pos.Line
			}
			out = append(out, d)
		}
	}
	return out
}

// commentIsAlone reports whether only whitespace precedes the comment
// starting at offset on its line.
func commentIsAlone(src []byte, offset int) bool {
	for i := offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

// parseDirective interprets the text of one //puno: comment.
func parseDirective(text string) directive {
	body := strings.TrimPrefix(text, punoPrefix)
	verb := body
	rest := ""
	if i := strings.IndexAny(body, " \t—:"); i >= 0 {
		verb, rest = body[:i], body[i:]
	}
	switch verb {
	case "hot":
		if strings.TrimSpace(rest) != "" {
			return directive{Kind: dirMalformed, Problem: "puno:hot takes no arguments"}
		}
		return directive{Kind: dirHot}
	case "worker":
		if strings.TrimSpace(rest) != "" {
			return directive{Kind: dirMalformed, Problem: "puno:worker takes no arguments"}
		}
		return directive{Kind: dirWorker}
	case "unordered":
		return directive{Kind: dirSuppress, Analyzer: "maprange", Reason: parseReason(rest)}
	case "allow":
		rest = strings.TrimLeft(rest, " \t")
		name := rest
		reason := ""
		if i := strings.IndexAny(rest, " \t—:-"); i >= 0 {
			name, reason = rest[:i], rest[i:]
		}
		if name == "" {
			return directive{Kind: dirMalformed, Problem: "puno:allow needs an analyzer name"}
		}
		return directive{Kind: dirSuppress, Analyzer: name, Reason: parseReason(reason)}
	default:
		return directive{Kind: dirMalformed, Problem: "unknown puno directive " + strings.Trim(verb, " \t")}
	}
}

// parseReason strips the separator (em dash, "--", "-", or ":") and
// surrounding space from a directive tail; an empty result means the
// required reason is missing.
func parseReason(s string) string {
	s = strings.TrimLeft(s, " \t")
	for _, sep := range []string{"—", "--", "-", ":"} {
		if strings.HasPrefix(s, sep) {
			return strings.TrimSpace(strings.TrimPrefix(s, sep))
		}
	}
	return strings.TrimSpace(s)
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
