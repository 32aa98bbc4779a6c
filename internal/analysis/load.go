package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was loaded under.
	Path string
	// Fset is the file set shared by every package of the Loader.
	Fset *token.FileSet
	// Pkg and Info are the go/types results.
	Pkg  *types.Package
	Info *types.Info
	// Files are the parsed non-test source files, with comments.
	Files []*ast.File
	// Sources maps each file name to its raw bytes (the //lint:ignore
	// engine needs them to tell standalone from trailing comments).
	Sources map[string][]byte
}

// Loader loads and type-checks packages of one module using only the
// standard library: module-local imports are resolved by mapping the
// import path onto the module directory tree, and standard-library
// imports are type-checked from GOROOT source via go/importer's
// "source" compiler. Loaded packages are cached, so shared
// dependencies are checked once.
type Loader struct {
	// Fset is shared by all files the loader touches, including
	// standard-library sources, so every token.Pos stays resolvable.
	Fset *token.FileSet

	root    string // module root directory (holds go.mod)
	modpath string // module path declared in go.mod
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader for the module rooted at root with the
// given module path.
func NewLoader(root, modpath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    root,
		modpath: modpath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, modpath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			modpath = parseModulePath(data)
			if modpath == "" {
				return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
			}
			return dir, modpath, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func parseModulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// ModulePackages enumerates every package directory in the module, in
// sorted import-path order. testdata, vendor, hidden, and
// underscore-prefixed directories are skipped (matching the go tool's
// ./... semantics).
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFilesIn(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.modpath)
		} else {
			paths = append(paths, l.modpath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// goFilesIn lists the non-test .go files of dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Packages returns every module package the loader has loaded so far
// (requested packages and their module-local dependencies), sorted by
// import path so program construction is deterministic.
func (l *Loader) Packages() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, pkg := range l.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Load parses and type-checks the package at the given import path,
// which must be the module path or below it. Results are cached.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	pkg, err := l.parse(path)
	if err != nil {
		return nil, err
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := &types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := cfg.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, err
	}
	pkg.Pkg = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// parse reads and parses the package at the given import path, which
// must be the module path or below it: the files Load type-checks,
// with comments, but no type information (Pkg and Info are nil).
// Nothing is cached.
func (l *Loader) parse(path string) (*Package, error) {
	dir := l.root
	if path != l.modpath {
		rel, ok := strings.CutPrefix(path, l.modpath+"/")
		if !ok {
			return nil, fmt.Errorf("%s is outside module %s", path, l.modpath)
		}
		dir = filepath.Join(l.root, filepath.FromSlash(rel))
	}
	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}

	pkg := &Package{
		Path:    path,
		Fset:    l.Fset,
		Sources: make(map[string][]byte, len(names)),
	}
	for _, name := range names {
		filename := filepath.Join(dir, name)
		src, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(l.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Sources[filename] = src
		pkg.Files = append(pkg.Files, file)
	}
	return pkg, nil
}

// loaderImporter routes module-local import paths back through the
// Loader and everything else to the standard-library source importer.
type loaderImporter Loader

func (i *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(i)
	if path == l.modpath || strings.HasPrefix(path, l.modpath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}
