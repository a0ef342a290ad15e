package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the slash-separated import path. Test variants (in-package
	// test files, external _test packages) keep the base path so
	// path-scoped analyzers treat them like the package itself.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks packages of one module from source, with no
// dependency on export data or the network: module-internal imports are
// resolved recursively from the tree, everything else through the
// standard library's source importer (which reads GOROOT source).
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string // module path from go.mod ("" = bare tree, linttest)
	std     types.Importer
	// plain caches the import-facing variant of each module package
	// (no test files), so the import graph matches what go build links.
	plain map[string]*types.Package
}

// NewLoader returns a loader rooted at dir. With modPath == "" every
// import that resolves to a directory under root is loaded from there
// (the linttest layout); otherwise only imports under modPath are.
func NewLoader(root, modPath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		plain:   map[string]*types.Package{},
	}
}

// NewModuleLoader locates the enclosing module (walking up from dir to
// the go.mod) and returns a loader for it.
func NewModuleLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(root, "go.mod"))
		if err == nil {
			modPath := modulePath(data)
			if modPath == "" {
				return nil, fmt.Errorf("%s/go.mod: no module directive", root)
			}
			return NewLoader(root, modPath), nil
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("no go.mod found above %s", dir)
		}
		root = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Import implements types.Importer for the type-checker: module packages
// come from source (plain variant, no test files), the rest from GOROOT.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.plain[path]; ok {
		return p, nil
	}
	if dir, ok := l.dirFor(path); ok {
		lib, _, _, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		pkg, _, err := l.check(path, lib)
		if err != nil {
			return nil, err
		}
		l.plain[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps an import path to a directory under the module root, or
// reports that the path is not module-local.
func (l *Loader) dirFor(path string) (string, bool) {
	rel := ""
	switch {
	case l.modPath == "":
		rel = path
	case path == l.modPath:
		rel = "."
	case strings.HasPrefix(path, l.modPath+"/"):
		rel = strings.TrimPrefix(path, l.modPath+"/")
	default:
		return "", false
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		return "", false
	}
	return dir, true
}

// parseDir parses the directory's buildable Go files into the library
// files, in-package test files, and external (_test package) test files.
// Build constraints are honoured against the default build context, so a
// //go:build race file is excluded exactly as it is from a normal build.
func (l *Loader) parseDir(dir string) (lib, intest, xtest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	ctx := build.Default
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			lib = append(lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtest = append(xtest, f)
		default:
			intest = append(intest, f)
		}
	}
	return lib, intest, xtest, nil
}

// check type-checks one file set as the package at path.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	return l.checkWith(l, path, files)
}

// checkWith is check with imports resolved by imp.
func (l *Loader) checkWith(imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := &types.Config{Importer: imp}
	pkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// Load expands the patterns ("./...", "./internal/medium", ...) relative
// to the module root and returns every matched package fully
// type-checked for analysis: the package augmented with its in-package
// test files, plus (separately) its external _test package when one
// exists. Both variants carry the base import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path := l.pathFor(dir)
		lib, intest, xtest, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		var under *types.Package // the package augmented with its in-package tests
		if len(lib)+len(intest) > 0 {
			files := append(append([]*ast.File{}, lib...), intest...)
			tpkg, info, err := l.check(path, files)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			under = tpkg
			pkgs = append(pkgs, &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info})
		}
		if len(xtest) > 0 {
			tpkg, info, err := l.check(path+"_test", xtest)
			if err != nil && len(intest) > 0 && under != nil {
				// The external tests may use what the in-package tests
				// export (the export_test.go idiom): link them as go test
				// does, against the augmented package.
				imp := &testVariantImporter{l: l, path: path, under: under,
					deps: map[string]bool{}, pkgs: map[string]*types.Package{}}
				tpkg, info, err = l.checkWith(imp, path+"_test", xtest)
			}
			if err != nil {
				return nil, fmt.Errorf("%s [xtest]: %w", path, err)
			}
			pkgs = append(pkgs, &Package{Path: path, Fset: l.fset, Files: xtest, Types: tpkg, Info: info})
		}
	}
	return pkgs, nil
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	rel = filepath.ToSlash(rel)
	if l.modPath == "" {
		return rel
	}
	return l.modPath + "/" + rel
}

// expand resolves package patterns to package directories. "dir/..."
// walks recursively; anything else names a single directory. testdata
// trees and hidden directories are skipped, matching go's own pattern
// expansion.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// testVariantImporter resolves an external test package's imports the way
// go test links it: the package under test is its test-augmented variant,
// and every module package that imports it, directly or not, is checked
// again against that variant, so the types passing through them stay
// identical. Every other import is the loader's plain variant.
type testVariantImporter struct {
	l     *Loader
	path  string         // the package under test
	under *types.Package // its test-augmented variant
	deps  map[string]bool
	pkgs  map[string]*types.Package
}

// Import implements types.Importer.
func (ti *testVariantImporter) Import(path string) (*types.Package, error) {
	if path == ti.path {
		return ti.under, nil
	}
	if !ti.reaches(path) {
		return ti.l.Import(path)
	}
	if p, ok := ti.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := ti.l.dirFor(path)
	lib, _, _, err := ti.l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p, _, err := ti.l.checkWith(ti, path, lib)
	if err != nil {
		return nil, err
	}
	ti.pkgs[path] = p
	return p, nil
}

// reaches reports whether the module package at path imports the package
// under test, directly or through other module packages.
func (ti *testVariantImporter) reaches(path string) bool {
	if r, ok := ti.deps[path]; ok {
		return r
	}
	ti.deps[path] = false
	dir, ok := ti.l.dirFor(path)
	if !ok {
		return false
	}
	lib, _, _, err := ti.l.parseDir(dir)
	if err != nil {
		return false
	}
	for _, f := range lib {
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err == nil && (imp == ti.path || ti.reaches(imp)) {
				ti.deps[path] = true
				return true
			}
		}
	}
	return false
}
