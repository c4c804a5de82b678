// The pkgdoc analyzer: the Go port of the awk "Doc comments" CI step. The
// recovery stack's package docs double as the design reference (doc.go's
// ladder points at them), so every package must carry a package-level doc
// comment on some non-test file. Unlike the awk pass this one sees the
// parsed AST, so a detached comment block (blank line before the package
// clause) correctly does not count.

package analysis

import "go/ast"

// NewPkgDoc builds the package-doc analyzer: every package must have a
// package doc comment on a non-test file. It reports once per package,
// at the package clause of the first (lexically sorted) file.
func NewPkgDoc() *Analyzer {
	a := &Analyzer{
		Name: "pkgdoc",
	}
	a.Run = func(pass *Pass) error {
		var first *ast.File
		for _, f := range pass.Files {
			if f.Doc != nil {
				return nil
			}
			if first == nil {
				first = f
			}
		}
		if first != nil {
			pass.Reportf(first.Package, "package %s has no package doc comment; the package docs double as the design reference", pass.Pkg.Name())
		}
		return nil
	}
	return a
}
