package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces a p3qlint source annotation, in the style of
// //go:build: no space after the slashes, verb, then a free-form argument
// (a reason, or a phase name for //p3q:phase).
const directivePrefix = "//p3q:"

// The directive verbs.
const (
	// allocVerb excuses one allocating construct inside a hotpath
	// function, with a reason.
	allocVerb = "alloc"
	// hostplaneVerb marks a struct field or function as host-plane
	// telemetry: wall-clock derived, observability-only. obspurity then
	// enforces that host-plane values never reach engine state or the
	// sim plane of the obs registry.
	hostplaneVerb = "hostplane"
	// hotpathVerb marks a per-cycle inner-loop function whose body
	// hotalloc scans for allocating constructs.
	hotpathVerb = "hotpath"
	// orderInvariantVerb marks a range-over-map whose body is commutative,
	// so iteration order provably cannot reach any engine-visible state.
	orderInvariantVerb = "orderinvariant"
	// phaseVerb assigns a function to the plan or commit phase of the
	// cycle engine; phasepurity then enforces that phase's contract.
	phaseVerb = "phase"
	// transientVerb excuses a field of a checkpointed struct from the
	// snapshotcomplete coverage requirement, with a reason.
	transientVerb = "transient"
)

// verbs is the directive grammar, one row per verb in name order. A
// directive is validated after its owner has run: an unknown verb (owned
// by maporder), a known verb outside its scopes, a directive its owner
// attached to nothing, and a missing reason where one is required are all
// findings — an annotation that suppresses nothing rots into false
// confidence the next time the code below it changes.
var verbs = []struct {
	verb   string
	owner  string   // the analyzer that attaches the verb and reports its problems
	scopes []string // packages where the verb is recognized; nil means module-wide
	target string   // what it attaches to, completing "stale ... directive: no "
	reason string   // the hint of the missing-reason finding; "" means no reason is required
}{
	{allocVerb, "hotalloc", HotpathScopes, "flagged allocation on its line (is the enclosing function annotated //p3q:hotpath?)", "say why this allocation must stay on the hot path"},
	{hostplaneVerb, "obspurity", DeterministicScopes, "struct field or function declaration starts on the line below it", ""},
	{hotpathVerb, "hotalloc", HotpathScopes, "function declaration starts on the line below it", ""},
	{orderInvariantVerb, "maporder", nil, "range-over-map starts on the line below it", "say why this loop body is order-invariant"},
	{phaseVerb, "phasepurity", DeterministicScopes, "function declaration starts on the line below it", ""},
	{transientVerb, "snapshotcomplete", SnapshotScopes, "field of a checkpointed struct starts on the line below it", "say why this field need not survive a checkpoint"},
}

// directive is one parsed //p3q: annotation.
type directive struct {
	pos    token.Pos
	verb   string
	reason string
	used   bool // attached by its owner
}

// lineKey names one line of one file.
type lineKey struct {
	file *token.File
	line int
}

// directiveIndex holds the directives of one package, built once per
// package by Check. Each directive attaches to one line: a comment group
// ending on the line above it, or a trailing comment on the same line. A
// trailing comment shares its line with code and attaches only there,
// never to the line below.
type directiveIndex struct {
	all []*directive
	at  map[lineKey][]*directive
}

func indexDirectives(pkg *Package) *directiveIndex {
	idx := &directiveIndex{at: map[lineKey][]*directive{}}
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		var codeEnds map[int]token.Pos
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				if codeEnds == nil {
					codeEnds = codeEndLines(tf, f)
				}
				key := lineKey{tf, tf.Line(cg.End()) + 1}
				if start := tf.Line(cg.Pos()); codeEnds[start] > 0 && codeEnds[start] <= cg.Pos() {
					key.line = start
				}
				verb, reason, _ := strings.Cut(rest, " ")
				d := &directive{pos: c.Pos(), verb: verb, reason: strings.TrimSpace(reason)}
				idx.all = append(idx.all, d)
				idx.at[key] = append(idx.at[key], d)
			}
		}
	}
	return idx
}

// codeEndLines maps each line of f to the end position of the last
// non-comment syntax node ending on it. A comment group starting after
// that position is a trailing comment of that line's code.
func codeEndLines(tf *token.File, f *ast.File) map[int]token.Pos {
	ends := map[int]token.Pos{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		if line := tf.Line(n.End()); n.End() > ends[line] {
			ends[line] = n.End()
		}
		return true
	})
	return ends
}

// directivesAt returns the directives with the given verb attached to the
// declaration, field or statement starting on pos's line, and marks them
// used.
func (p *Pass) directivesAt(pos token.Pos, verb string) []*directive {
	tf := p.Fset.File(pos)
	var out []*directive
	for _, d := range p.directives.at[lineKey{tf, tf.Line(pos)}] {
		if d.verb == verb {
			d.used = true
			out = append(out, d)
		}
	}
	return out
}

// validate reports, under its owning analyzer's name, every problem of
// every directive of package path.
func (idx *directiveIndex) validate(path string, report func(owner string, pos token.Pos, msg string)) {
	for _, d := range idx.all {
		i := 0
		for i < len(verbs) && verbs[i].verb != d.verb {
			i++
		}
		if i == len(verbs) {
			known := make([]string, len(verbs))
			for j, v := range verbs {
				known[j] = v.verb
			}
			report("maporder", d.pos, "unknown directive //p3q:"+d.verb+" (recognized verbs: "+strings.Join(known, ", ")+")")
			continue
		}
		v := verbs[i]
		switch {
		case v.scopes != nil && !inScope(path, v.scopes):
			report(v.owner, d.pos, "unknown directive //p3q:"+d.verb+" in package "+path+" (this verb is only recognized under "+strings.Join(v.scopes, ", ")+")")
		case !d.used:
			report(v.owner, d.pos, "stale //p3q:"+d.verb+" directive: no "+v.target)
		case v.reason != "" && d.reason == "":
			report(v.owner, d.pos, "//p3q:"+d.verb+" directive is missing a reason ("+v.reason+")")
		}
	}
}
