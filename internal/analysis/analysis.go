// Package analysis is accellint: a static-analysis suite that turns the
// repository's dynamic invariants into compile-time properties. Every
// guarantee the reproduction makes — byte-deterministic campaigns, measured
// cost ≤ τ̂s/γ̂s bounds (Eq. 2/4), race-free deep-copied state export during
// failover — is otherwise enforced only by golden files, the conformance
// harness and -race runs, which sample around violations instead of ruling
// them out. The suite encodes four invariant families as analyzers:
//
//	determinism  no wall-clock (time.Now), no global math/rand, and no
//	             unsorted map iteration in the packages whose output feeds
//	             traces, golden files or campaign emitters
//	boundcheck   every call to a core bound function (τ̂, τ̂(K), γ̂, resume
//	             bound, ...) checks its error, and bound comparisons do not
//	             smuggle signed values through unsigned conversions or
//	             truncate cycle arithmetic with integer division
//	deepcopy     functions marked //accellint:deepcopy (the failover and
//	             snapshot export path) neither return receiver-reachable
//	             slices/maps nor retain parameter-reachable ones
//	pkgdoc       every package carries a package doc comment (the package
//	             docs double as the design reference)
//
// The framework deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) but is self-contained: the module has
// no dependencies, so loading and type-checking are built on go/parser and
// go/types with the stdlib source importer. cmd/accellint is the
// multichecker binary; analysistest runs fixtures with // want comments.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. It mirrors the x/tools
// go/analysis Analyzer surface that this suite needs: a name (printed with
// each diagnostic and used by suppression directives) and a Run function
// over one type-checked package. Its constructor's doc comment states the
// invariant.
type Analyzer struct {
	Name string
	Run  func(*Pass) error
}

// A Pass hands an Analyzer one type-checked package. Report appends to the
// driver's diagnostic list; analyzers never print directly.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Report   func(Diagnostic)
	// used records which directive comments an analyzer actually consulted,
	// shared across every pass of one Run so the driver can report stale
	// directives afterwards.
	used map[token.Pos]bool
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Options configures one RunOpts pass of the suite.
type Options struct {
	// CheckDirectives reports //accellint: comments that no analyzer
	// consumed — a suppression whose finding no longer fires, a marker on
	// nothing, or a misspelled name. On by default in cmd/accellint and
	// TestSuiteCleanOnRepo so directives cannot rot.
	CheckDirectives bool
}

// RunOpts applies every analyzer to every package and returns the
// diagnostics sorted by position (filename, then offset) so output is
// deterministic — the suite holds itself to the invariant it enforces.
func RunOpts(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	var diags []Diagnostic
	used := map[token.Pos]bool{}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				used:     used,
			}
			pass.Report = func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if opts.CheckDirectives {
		diags = append(diags, staleDirectives(pkgs, used)...)
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Offset != pj.Offset {
			return pi.Offset < pj.Offset
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// LineDirective reports whether a comment of the form "//accellint:<name>"
// (optionally followed by a justification) sits on the same line as pos or
// on the line immediately above it, and records the directive as consumed.
// Directives are the suite's escape hatch: each use states in-source why
// the invariant holds anyway. Analyzers must only call this where a finding
// would otherwise fire, so an un-consulted directive is reported as stale.
func (p *Pass) LineDirective(file *ast.File, pos token.Pos, name string) bool {
	line := p.Fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cl := p.Fset.Position(c.Pos()).Line
			if cl != line && cl != line-1 {
				continue
			}
			d, ok := ParseDirective(c.Text)
			if ok && d.Name == name {
				p.consume(c.Pos())
				return true
			}
		}
	}
	return false
}

// DocDirective reports whether a declaration's doc comment carries the
// "//accellint:<name>" marker, returning the parsed directive (for its
// arguments) and recording it as consumed.
func (p *Pass) DocDirective(doc *ast.CommentGroup, name string) (Directive, bool) {
	if doc == nil {
		return Directive{}, false
	}
	for _, c := range doc.List {
		d, ok := ParseDirective(c.Text)
		if ok && d.Name == name {
			p.consume(c.Pos())
			return d, true
		}
	}
	return Directive{}, false
}

func (p *Pass) consume(pos token.Pos) {
	if p.used != nil {
		p.used[pos] = true
	}
}

// staleDirectives scans every //accellint: comment of the analyzed packages
// and reports the ones no analyzer consumed: unknown names (a typo that
// suppresses nothing while looking load-bearing) and known names that
// neither suppressed a finding nor marked a declaration the analyzers
// visited. This is what keeps directives honest — deleting the code a
// directive excused makes the directive itself a finding.
func staleDirectives(pkgs []*Package, used map[token.Pos]bool) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					d, ok := ParseDirective(c.Text)
					if !ok || used[c.Pos()] {
						continue
					}
					var msg string
					switch {
					case !knownDirectives[d.Name]:
						msg = fmt.Sprintf("unknown accellint directive %q; known: %s", d.Name, strings.Join(knownDirectiveNames(), ", "))
					default:
						msg = fmt.Sprintf("stale //accellint:%s directive suppresses or marks nothing; delete it or move it to the finding it excuses", d.Name)
					}
					diags = append(diags, Diagnostic{Pos: c.Pos(), Message: msg, Analyzer: "directive"})
				}
			}
		}
	}
	return diags
}

func knownDirectiveNames() []string {
	names := make([]string, 0, len(knownDirectives))
	for n := range knownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
