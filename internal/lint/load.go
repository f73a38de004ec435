package lint

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
	Path  string // import path
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of one module without any
// go/packages dependency. Imports inside the module resolve recursively
// through the loader itself; everything else (the standard library)
// resolves through the compiler's source importer. Loaded packages are
// memoized, so a whole-tree run type-checks each package once and the
// module ends up with exactly one *types.Package per import path: an
// imported declaration is the same types.Object in every importer.
//
// A Loader is not safe for concurrent use; each caller owns one.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // absolute module root (directory containing go.mod)
	ModPath string // module path from go.mod

	std  types.Importer // stdlib imports, through the source importer
	memo map[string]*loadResult
	done []*Package // successfully loaded packages, in dependency post-order
}

// loadResult memoizes one load. A nil pkg with a nil err marks a
// package still loading, so an import cycle is an error instead of
// unbounded recursion; a failed load keeps its own error, so a second
// importer of a broken package sees that error again, not a cycle.
type loadResult struct {
	pkg *Package
	err error
}

// NewLoader builds a loader for the module rooted at modRoot. modPath
// is the module path (the first `module` directive in go.mod); pass ""
// to read it from go.mod.
func NewLoader(modRoot, modPath string) (*Loader, error) {
	abs, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	if modPath == "" {
		modPath, err = readModulePath(filepath.Join(abs, "go.mod"))
		if err != nil {
			return nil, err
		}
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		ModRoot: abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		memo:    map[string]*loadResult{},
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Import implements types.Importer, routing module-internal paths to
// the loader and everything else to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path != l.ModPath && !strings.HasPrefix(path, l.ModPath+"/") {
		return l.std.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return filepath.Join(l.ModRoot, filepath.FromSlash(rel))
}

// pathFor maps a directory inside the module to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir loads the package in one directory (which must be inside the
// module).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

// LoadAll loads the packages in dirs, plus their module-internal
// dependency closure. The returned slice holds only the requested
// packages, in dependency order — a package always follows its
// module-internal dependencies — so analyzer output is stable run to
// run.
func (l *Loader) LoadAll(dirs []string) ([]*Package, error) {
	want := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		want[pkg.Path] = true
	}
	var out []*Package
	for _, pkg := range l.done {
		if want[pkg.Path] {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// load parses and type-checks one module-internal package, memoized.
// Its module-internal imports load first, recursively through Import,
// so l.done grows in dependency post-order.
func (l *Loader) load(path string) (*Package, error) {
	if r, ok := l.memo[path]; ok {
		if r.pkg == nil && r.err == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return r.pkg, r.err
	}
	r := &loadResult{}
	l.memo[path] = r
	r.pkg, r.err = l.check(path)
	if r.err == nil {
		l.done = append(l.done, r.pkg)
	}
	return r.pkg, r.err
}

// check parses one package's non-test sources and type-checks them.
func (l *Loader) check(path string) (*Package, error) {
	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries { // ReadDir sorts by name
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// ExpandPatterns resolves package patterns (a directory, or a directory
// suffixed with /... for a recursive walk) to package directories,
// relative to the module root. Directories named testdata, hidden
// directories, and directories without Go files are skipped during
// walks, mirroring the go tool.
func (l *Loader) ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	addDir := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if root == "." || root == "" {
				root = l.ModRoot
			} else if !filepath.IsAbs(root) {
				root = filepath.Join(l.ModRoot, root)
			}
			err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if d.IsDir() {
					name := d.Name()
					if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
						return filepath.SkipDir
					}
					return nil
				}
				if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
					addDir(filepath.Dir(p))
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.ModRoot, dir)
		}
		addDir(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}
