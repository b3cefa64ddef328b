package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one fully loaded, type-checked package under analysis.
type Package struct {
	Path  string
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the slice of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
}

// LoadPackages loads and type-checks the packages matching the given go-list
// patterns (plus their full dependency graph) and returns the matched
// packages ready for analysis, sorted by import path.
//
// The loader is built on `go list -deps -json` + go/types instead of
// golang.org/x/tools/go/packages because this repo builds offline with no
// third-party modules. go list is invoked with CGO_ENABLED=0 so the reported
// file sets form a self-consistent pure-Go build (the module itself is pure
// Go; only stdlib deps like net have cgo variants). Only non-test files are
// loaded: the determinism contract binds production code, and tests routinely
// poll wall-clock deadlines on purpose.
func LoadPackages(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, nil, patterns...)
	if err != nil {
		return nil, err
	}
	graph, err := goList(dir, []string{"-deps"}, patterns...)
	if err != nil {
		return nil, err
	}
	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		targetSet[t.ImportPath] = true
	}
	_, out, err := typeCheck(graph, targetSet, token.NewFileSet())
	return out, err
}

// goList runs `go list -json` and decodes the package stream.
func goList(dir string, extraFlags []string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-json=ImportPath,Name,Dir,Standard,GoFiles,Imports,ImportMap"}, extraFlags...)
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// graphImporter resolves imports against the already-type-checked graph,
// honoring the importing package's vendor/ImportMap view.
type graphImporter struct {
	checked   map[string]*types.Package
	importMap map[string]string
}

func (g graphImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := g.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := g.checked[path]; pkg != nil {
		return pkg, nil
	}
	return nil, fmt.Errorf("package %q not in load graph", path)
}

// typeCheck type-checks the dependency-ordered graph (go list -deps emits
// dependencies before dependents) into fset. It returns every checked
// package by import path, and the target packages with full syntax and type
// info. Dependencies are checked API-only and their parse and type errors
// are tolerated; a target package failing to parse or type-check is a hard
// error, because analyzers would silently miss findings on incomplete type
// info.
func typeCheck(graph []*listedPackage, targetSet map[string]bool, fset *token.FileSet) (map[string]*types.Package, []*Package, error) {
	checked := make(map[string]*types.Package, len(graph))
	var out []*Package
	for _, lp := range graph {
		if lp.ImportPath == "unsafe" {
			checked["unsafe"] = types.Unsafe
			continue
		}
		if lp.Name == "" || len(lp.GoFiles) == 0 {
			continue
		}
		target := targetSet[lp.ImportPath]
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				if target {
					return nil, nil, fmt.Errorf("parse %s: %w", lp.ImportPath, err)
				}
				continue
			}
			files = append(files, f)
		}
		imp := graphImporter{checked: checked, importMap: lp.ImportMap}
		pkg, info, err := checkPackage(lp.ImportPath, fset, files, imp, target)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil {
			checked[lp.ImportPath] = pkg
		}
		if target {
			out = append(out, &Package{
				Path:  lp.ImportPath,
				Name:  lp.Name,
				Dir:   lp.Dir,
				Fset:  fset,
				Files: files,
				Types: pkg,
				Info:  info,
			})
		}
	}
	return checked, out, nil
}

// checkPackage type-checks one package's parsed files. A target gets full
// type info and fails on its first type error; a dependency is checked
// API-only (IgnoreFuncBodies — analyzers only need its exported API), with
// no info and its type errors ignored.
func checkPackage(path string, fset *token.FileSet, files []*ast.File, imp types.Importer, target bool) (*types.Package, *types.Info, error) {
	var firstErr error
	cfg := types.Config{
		Importer:         imp,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: !target,
		FakeImportC:      true,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	var info *types.Info
	if target {
		info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
		}
	}
	pkg, _ := cfg.Check(path, fset, files, info)
	if target && firstErr != nil {
		return nil, nil, fmt.Errorf("type-check %s: %v", path, firstErr)
	}
	return pkg, info, nil
}

// CheckFiles type-checks a single already-parsed package (the analysistest
// path: testdata sources that go list cannot enumerate) against the stdlib
// and any module-internal imports it names. fset must be the FileSet the
// files were parsed with; path names the synthetic package.
func CheckFiles(dir, path string, fset *token.FileSet, files []*ast.File) (*Package, error) {
	// Resolve the testdata package's imports through the same go-list loader,
	// so `gameofcoins/internal/rng` and stdlib imports land in one graph.
	var imports []string
	seen := map[string]bool{}
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != "" && p != "unsafe" && !seen[p] {
				seen[p] = true
				imports = append(imports, p)
			}
		}
	}
	checked := map[string]*types.Package{}
	if len(imports) > 0 {
		graph, err := goList(dir, []string{"-deps"}, imports...)
		if err != nil {
			return nil, err
		}
		// The dependencies are checked into fset, so positions in the
		// target and its imports stay coherent.
		if checked, _, err = typeCheck(graph, nil, fset); err != nil {
			return nil, err
		}
	}
	pkg, info, err := checkPackage(path, fset, files, graphImporter{checked: checked}, true)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Name: pkg.Name(), Dir: dir, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}
