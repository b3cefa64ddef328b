// Package analysis is the home of goclint, the repo's static enforcement of
// its determinism contract. Every guarantee the serving stack makes — sweep
// results byte-identical at any worker count, across restarts, and through
// distributed worker failures — reduces to source-level conventions: task
// randomness derives from the forked per-task *rng.Rand, compute paths never
// consult ambient state (wall clock, process environment, global RNGs), map
// iteration order never leaks into marshaled output, and error values on the
// persistence path are never silently dropped. This package checks those
// conventions at analysis time instead of hoping property tests catch every
// regression.
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) so analyzers could be ported to the real
// multichecker if the dependency ever becomes available; it is implemented on
// the standard library alone because this repo builds offline with zero
// third-party modules.
//
// Suppression: a finding is suppressed by a directive comment
//
//	//goclint:allow <rule>[,<rule>...] [-- rationale]
//
// placed on the flagged line or on the line immediately above it. Directives
// are deliberately narrow — one line, named rules only — so an allow can
// never silently blanket future violations.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a message
// telling the author what to do instead.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects a fully type-checked package and
// reports findings through the Pass.
type Analyzer struct {
	// Name is the rule name — what directives name and diagnostics carry.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// AppliesTo reports whether the rule runs on the given import path. A nil
	// AppliesTo runs everywhere.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Lint runs every applicable analyzer over every package and returns the
// surviving findings sorted by position, with //goclint:allow-suppressed
// findings removed. The returned findings are ready to print.
func Lint(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := LintWithUnused(pkgs, analyzers)
	return diags, err
}

// UnusedAllow is one //goclint:allow directive (one rule of one) that
// suppressed nothing when the suite ran — a stale suppression whose hazard
// has since been fixed, moved, or never existed. Stale allows rot the audit
// trail: they read as "this line is dangerous on purpose" about code that is
// no longer dangerous at all.
type UnusedAllow struct {
	Pos  token.Position // the directive comment's position
	Rule string
}

// String renders the warning in file:line form.
func (u UnusedAllow) String() string {
	return fmt.Sprintf("%s:%d: unused //goclint:allow %s (suppresses no current finding)", u.Pos.Filename, u.Pos.Line, u.Rule)
}

// LintWithUnused is Lint plus the stale-directive report: every parsed allow
// that matched no diagnostic of any analyzer that ran. An allow naming a rule
// whose analyzer does not apply to the package is unused by definition.
func LintWithUnused(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedAllow, error) {
	var all []Diagnostic
	var unused []UnusedAllow
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		used := map[allowKey]bool{}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			var diags []Diagnostic
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if key, ok := allows.match(d); ok {
					used[key] = true
				} else {
					all = append(all, d)
				}
			}
		}
		for key := range allows {
			if !used[key] {
				unused = append(unused, UnusedAllow{
					Pos:  token.Position{Filename: key.file, Line: key.line},
					Rule: key.rule,
				})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i], unused[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	return all, unused, nil
}

// allowKey identifies one (file, line, rule) a directive covers.
type allowKey struct {
	file string
	line int
	rule string
}

// allowSet is the package's parsed //goclint:allow directives.
type allowSet map[allowKey]bool

// match returns the directive key covering the diagnostic: the rule must be
// named on the flagged line itself or the line directly above it, and the
// same-line directive wins.
func (s allowSet) match(d Diagnostic) (allowKey, bool) {
	if key := (allowKey{d.Pos.Filename, d.Pos.Line, d.Rule}); s[key] {
		return key, true
	}
	if key := (allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Rule}); s[key] {
		return key, true
	}
	return allowKey{}, false
}

const allowPrefix = "//goclint:allow"

// collectAllows parses every //goclint:allow directive in the package.
func collectAllows(pkg *Package) allowSet {
	allows := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rules, ok := parseAllowDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, rule := range rules {
					allows[allowKey{pos.Filename, pos.Line, rule}] = true
				}
			}
		}
	}
	return allows
}

// parseAllowDirective parses one comment as an allow directive, returning the
// named rules. The grammar is
//
//	//goclint:allow rule[,rule...] [-- rationale]
//
// following Go's directive convention: no space after //, everything past an
// optional " -- " is free-form rationale.
func parseAllowDirective(text string) ([]string, bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil, false
	}
	rest := text[len(allowPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false // e.g. //goclint:allowance
	}
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = rest[:i]
	}
	var rules []string
	for _, r := range strings.Split(rest, ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	return rules, len(rules) > 0
}

// forEachFunc walks every function or method body in the package, handing the
// enclosing declaration node and its body to fn. Function literals are walked
// as part of the enclosing declaration's body, not reported separately.
func forEachFunc(pkg *Package, fn func(decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
