package analysis

import (
	"go/token"
	"sort"
	"strings"
)

// ignorePrefix introduces a suppression directive:
//
//	//lint:ignore <check> <reason>
//
// The directive suppresses diagnostics of the named check on its own
// line (trailing comment) or, when the comment stands alone on a line,
// on the line directly below it. The reason is mandatory: a directive
// without one is reported as an "ignore" diagnostic so unjustified
// suppressions cannot accumulate silently.
const ignorePrefix = "lint:ignore"

type ignoreKey struct {
	file  string
	line  int
	check string
}

// ignoreDirective is one parsed //lint:ignore comment: where it is,
// what it names, and which line it applies to.
type ignoreDirective struct {
	pos    token.Position
	check  string // "" when the directive names nothing
	reason string // "" when the mandatory reason is missing
	target int    // the line the directive suppresses
}

// ignoreDirectives collects every //lint:ignore comment of the package
// in source order, including malformed ones.
func ignoreDirectives(pkg *Package) []ignoreDirective {
	var out []ignoreDirective
	for _, file := range pkg.Files {
		filename := pkg.Fset.Position(file.Pos()).Filename
		src := pkg.Sources[filename]
		for _, group := range file.Comments {
			for _, c := range group.List {
				text, ok := strings.CutPrefix(strings.TrimPrefix(c.Text, "//"), ignorePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Slash)
				fields := strings.Fields(text)
				d := ignoreDirective{pos: pos, target: pos.Line}
				if len(fields) > 0 {
					d.check = fields[0]
				}
				if len(fields) >= 2 {
					d.reason = strings.Join(fields[1:], " ")
				}
				if standaloneComment(src, pos) {
					d.target++
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// applyIgnores filters diags through the package's //lint:ignore
// directives and appends a diagnostic for every malformed directive.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	ignored := make(map[ignoreKey]bool)
	var out []Diagnostic
	for _, d := range ignoreDirectives(pkg) {
		if d.check == "" || d.reason == "" {
			out = append(out, Diagnostic{
				Position: d.pos,
				Check:    "ignore",
				Message:  "malformed directive: want //lint:ignore <check> <reason>",
			})
			continue
		}
		ignored[ignoreKey{d.pos.Filename, d.target, d.check}] = true
	}
	for _, d := range diags {
		if ignored[ignoreKey{d.Position.Filename, d.Position.Line, d.Check}] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// standaloneComment reports whether only whitespace precedes the
// comment starting at pos on its line — i.e. the directive annotates
// the line below rather than its own.
func standaloneComment(src []byte, pos token.Position) bool {
	if src == nil {
		return false
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// Suppression is one //lint:ignore directive found in linted source,
// for the audit report: every live suppression carries its written
// justification (a malformed one shows up with an empty Reason) and
// the import path of the package it lives in.
type Suppression struct {
	Position token.Position
	Package  string
	Check    string
	Reason   string
}

// Suppressions parses the packages at the given module-relative import
// paths (every package in the module when paths is nil) and
// inventories their //lint:ignore directives. Directives are comments,
// so no package is type-checked. The order is fully deterministic —
// file, line, column, check, reason — so successive CI runs diff
// cleanly.
func Suppressions(root, modpath string, paths []string) ([]Suppression, error) {
	loader := NewLoader(root, modpath)
	if paths == nil {
		var err error
		paths, err = loader.ModulePackages()
		if err != nil {
			return nil, err
		}
	}
	var out []Suppression
	for _, path := range paths {
		pkg, err := loader.parse(path)
		if err != nil {
			return nil, err
		}
		for _, d := range ignoreDirectives(pkg) {
			out = append(out, Suppression{Position: d.pos, Package: path, Check: d.check, Reason: d.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Reason < b.Reason
	})
	return out, nil
}
