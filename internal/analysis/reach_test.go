package analysis_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gameofcoins/internal/analysis"
)

// reachAllow names the package-level declarations that TestEveryDeclReached
// accepts although no program reaches them, each with the reason it stays.
// What an entry uses is reached through it. Keys are "<package path below the
// module>.<name>", with the receiver's type name before a method's name
// ("internal/core.Game.RPU"); the root package is "gameofcoins".
var reachAllow = map[string]string{
	"internal/analysis.Lint":             "TestSelfClean and the bench module's goclint test run the suite through it",
	"internal/analysis/analysistest.Run": "test support: every analyzer's golden test runs through it",
	"internal/core.Game.BetterResponses": "the design, potential, learning and exact tests walk better-response steps with it",
	"internal/core.Game.Epsilon":         "the learning, equilibria and exact fuzz targets read the game's tolerance through it",
	"internal/core.Game.IsStable":        "reference for FuzzSchedulersMatchReference (internal/learning)",
	"internal/core.Game.PayoffAfterMove": "reference for FuzzSchedulersMatchReference (internal/learning) and the internal/exact tests",
	"internal/core.Game.RPU":             "the design tests check designed rewards against the paper's RPU",
	"internal/core.Game.SumPayoffs":      "the equilibria tests check that an equilibrium pays out the total reward",
	"internal/core.Game.TotalReward":     "the equilibria tests check that an equilibrium pays out the total reward",
	"internal/numeric.Rat.Float64":       "internal/exact's tests compare and print exact values as float64 through it",
}

var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Package
	moduleErr  error
)

// loadModule loads and type-checks the module's non-test files once, for
// every test here that reads the whole module.
func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = analysis.LoadPackages("../..", "./...") })
	if moduleErr != nil {
		t.Fatalf("load module: %v", moduleErr)
	}
	return modulePkgs
}

// TestEveryDeclReached fails on a package-level declaration, exported or
// not, of a non-main package that no program reaches and reachAllow does not
// name, and on a reachAllow entry that names nothing, names a reached
// declaration or gives no reason.
//
// The roots are every declaration of a main package, every exported name
// declared in the public packages (gameofcoins and client), init functions,
// and every module name the benchmark module's non-test files use (matched
// by package path and name, since bench is a separate module with its own
// load). From a reached declaration the walk follows the names its syntax
// uses; a method of a reached type is reached too when it satisfies an
// interface: a standard-library one (errorsInterfaces included), an unnamed
// one, or a reached one of the module's. Only non-test files count, so code
// that only tests call is not reached.
func TestEveryDeclReached(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the module and the benchmark module")
	}
	pkgs := loadModule(t)
	benchPkgs, err := analysis.LoadPackages("../../bench", "./...")
	if err != nil {
		t.Fatalf("load bench module: %v", err)
	}
	bench := benchUses(benchPkgs)
	if len(bench) == 0 {
		t.Fatal("the bench module uses no module name; its load lost its packages")
	}
	for _, finding := range newReachGraph(pkgs, bench).check(reachAllow) {
		t.Error(finding)
	}
}

// check walks g from its roots, then from the declarations that allow
// names, and returns the gate's findings: each entry of allow that names no
// declaration, names one the roots reach or gives no reason, then each
// declaration that nothing reaches.
func (g *reachGraph) check(allow map[string]string) []string {
	g.walk()
	byPrograms := g.reachedKeys()
	var findings []string
	for _, key := range slices.Sorted(maps.Keys(allow)) {
		reached, ok := byPrograms[key]
		switch {
		case !ok:
			findings = append(findings, fmt.Sprintf("reachAllow[%q] names no declaration", key))
		case reached:
			findings = append(findings, fmt.Sprintf("reachAllow[%q] names a declaration that a program reaches; drop the entry", key))
		case strings.TrimSpace(allow[key]) == "":
			findings = append(findings, fmt.Sprintf("reachAllow[%q] gives no reason", key))
		}
		g.mark(g.byKey[key])
	}
	g.walk()
	var dead []string
	for key, reached := range g.reachedKeys() {
		if !reached {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		findings = append(findings, key+": no program reaches it; delete it, or move it into a _test.go file if only its own package's tests use it")
	}
	return findings
}

// reachFixture is one package whose declarations exercise each rule of the
// gate that TestEveryDeclReached runs; TestReachGraphRules and
// TestReachAllowlist check what the gate makes of them.
const reachFixture = `package fixture

type walker interface{ Walk() }
type idle interface{ Idle() }

func Root() error {
	called()
	var w walker = stepper{}
	w.Walk()
	return (*failure)(nil)
}

func called()      { calledTwice() }
func calledTwice() {}

func init()     { fromInit() }
func fromInit() {}

type failure struct{}

func (*failure) Error() string { return "failure" }
func (*failure) Unwrap() error { return nil }
func (*failure) Extra()        {}

type stepper struct{}

func (stepper) Walk() {}
func (stepper) Idle() {}

type orphan struct{}

func (orphan) Error() string { return "orphan" }

func Dead()       { deadCallee() }
func deadCallee() {}

var deadVar = 1
`

func TestReachGraphRules(t *testing.T) {
	tests := []struct {
		name    string
		path    string // the fixture's package path below the module
		bench   []string
		reached []string
		dead    []string
	}{
		{
			name:    "a bench use is a root and reaches what it uses",
			path:    "internal/fixture",
			bench:   []string{"Root"},
			reached: []string{"Root", "called", "calledTwice", "walker", "failure", "stepper"},
		},
		{
			name:    "init is a root",
			path:    "internal/fixture",
			reached: []string{"fromInit"},
			dead:    []string{"Root", "called"},
		},
		{
			name:    "a reached type's method counts once it satisfies an interface",
			path:    "internal/fixture",
			bench:   []string{"Root"},
			reached: []string{"failure.Error", "failure.Unwrap", "stepper.Walk"},
			dead:    []string{"failure.Extra", "stepper.Idle", "idle"},
		},
		{
			name:  "an unreached type's methods stay unreached",
			path:  "internal/fixture",
			bench: []string{"Root"},
			dead:  []string{"orphan", "orphan.Error"},
		},
		{
			name:  "nothing reaches a declaration that no root uses",
			path:  "internal/fixture",
			bench: []string{"Root"},
			dead:  []string{"Dead", "deadCallee", "deadVar"},
		},
		{
			name:    "the exported names of a public package are roots",
			path:    "client",
			reached: []string{"Root", "Dead", "deadCallee", "called"},
			dead:    []string{"deadVar", "idle"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := fixtureGraph(t, tt.path, tt.bench...)
			g.walk()
			got := g.reachedKeys()
			for _, want := range []struct {
				names   []string
				reached bool
			}{{tt.reached, true}, {tt.dead, false}} {
				for _, name := range want.names {
					reached, ok := got[tt.path+"."+name]
					if !ok {
						t.Errorf("%s is not a declaration of the fixture", name)
					} else if reached != want.reached {
						t.Errorf("%s: reached = %v, want %v", name, reached, want.reached)
					}
				}
			}
		})
	}
}

// TestReachAllowlist: an allowlisted declaration keeps what it uses alive,
// and an entry that names nothing, names a reached declaration or gives no
// reason is a finding of its own.
func TestReachAllowlist(t *testing.T) {
	const deadVar = "internal/fixture.deadVar: no program reaches it"
	tests := []struct {
		name  string
		allow map[string]string
		want  []string // prefixes of findings that must be reported
		not   []string // prefixes of findings that must not be
	}{
		{
			name:  "an allowed declaration keeps what it uses alive",
			allow: map[string]string{"internal/fixture.Dead": "kept for its tests"},
			want:  []string{deadVar},
			not:   []string{"reachAllow", "internal/fixture.Dead:", "internal/fixture.deadCallee:"},
		},
		{
			name:  "an entry that names nothing",
			allow: map[string]string{"internal/fixture.Gone": "deleted long ago"},
			want:  []string{`reachAllow["internal/fixture.Gone"] names no declaration`, deadVar},
		},
		{
			name:  "an entry for a declaration a program reaches",
			allow: map[string]string{"internal/fixture.called": "Root calls it"},
			want:  []string{`reachAllow["internal/fixture.called"] names a declaration that a program reaches`},
		},
		{
			name:  "an entry without a reason",
			allow: map[string]string{"internal/fixture.Dead": " "},
			want:  []string{`reachAllow["internal/fixture.Dead"] gives no reason`},
			not:   []string{"internal/fixture.deadCallee:"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			findings := fixtureGraph(t, "internal/fixture", "Root").check(tt.allow)
			has := func(prefix string) bool {
				return slices.ContainsFunc(findings, func(f string) bool { return strings.HasPrefix(f, prefix) })
			}
			for _, prefix := range tt.want {
				if !has(prefix) {
					t.Errorf("no finding starts %q; findings:\n%s", prefix, strings.Join(findings, "\n"))
				}
			}
			for _, prefix := range tt.not {
				if has(prefix) {
					t.Errorf("a finding starts %q; findings:\n%s", prefix, strings.Join(findings, "\n"))
				}
			}
		})
	}
}

// fixtureGraph type-checks reachFixture as the module package at path (below
// the module) and indexes it with the named declarations as bench uses.
func fixtureGraph(t *testing.T, path string, bench ...string) *reachGraph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", reachFixture, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckFiles(".", analysis.ModulePath+"/"+path, fset, []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	uses := map[string]bool{}
	for _, name := range bench {
		uses[path+"."+name] = true
	}
	return newReachGraph([]*analysis.Package{pkg}, uses)
}

// declKey names a package-level object or method the way reachAllow does.
func declKey(obj types.Object) string {
	key := strings.TrimPrefix(obj.Pkg().Path(), analysis.ModulePath+"/") + "."
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				key += n.Obj().Name() + "."
			}
		}
	}
	return key + obj.Name()
}

// benchUses returns the keys of the module's package-level names and methods
// that the benchmark module's packages use.
func benchUses(pkgs []*analysis.Package) map[string]bool {
	uses := map[string]bool{}
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			p := obj.Pkg()
			if p == nil || !strings.HasPrefix(p.Path()+"/", analysis.ModulePath+"/") ||
				strings.HasPrefix(p.Path()+"/", analysis.ModulePath+"/bench/") {
				continue
			}
			if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil || obj.Parent() == p.Scope() {
				uses[declKey(obj)] = true
			}
		}
	}
	return uses
}

// reachGraph is the module's package-level declarations, methods included,
// and a walk over the names they use.
type reachGraph struct {
	decls   map[types.Object]*reachDecl
	byKey   map[string]types.Object // the declarations of non-main packages
	reached map[types.Object]bool
	work    []types.Object
	ifaces  map[string][]ifaceUse // by method name
}

type reachDecl struct {
	info  *types.Info
	nodes []ast.Node // the syntax whose uses the declaration reaches
}

// newReachGraph indexes the declarations of pkgs and marks the roots.
func newReachGraph(pkgs []*analysis.Package, bench map[string]bool) *reachGraph {
	g := &reachGraph{
		decls:   map[types.Object]*reachDecl{},
		byKey:   map[string]types.Object{},
		reached: map[types.Object]bool{},
	}
	var roots []types.Object
	add := func(pkg *analysis.Package, id *ast.Ident, node ast.Node, root bool) {
		obj := pkg.Info.Defs[id]
		if obj == nil || id.Name == "_" {
			return
		}
		d := g.decls[obj]
		if d == nil {
			d = &reachDecl{info: pkg.Info}
			g.decls[obj] = d
		}
		d.nodes = append(d.nodes, node)
		if pkg.Name != "main" {
			g.byKey[declKey(obj)] = obj
		}
		if root || pkg.Name == "main" || bench[declKey(obj)] ||
			obj.Exported() && (pkg.Path == analysis.ModulePath || pkg.Path == analysis.ModulePath+"/client") {
			roots = append(roots, obj)
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					add(pkg, decl.Name, decl, decl.Recv == nil && decl.Name.Name == "init")
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(pkg, id, spec, false)
							}
						case *ast.TypeSpec:
							add(pkg, spec.Name, spec, false)
						}
					}
				}
			}
		}
	}
	g.ifaces = interfacesByMethod(pkgs, g.decls)
	for _, obj := range roots {
		g.mark(obj)
	}
	return g
}

// reachedKeys reports for each declaration of a non-main package whether it
// is reached so far.
func (g *reachGraph) reachedKeys() map[string]bool {
	out := make(map[string]bool, len(g.byKey))
	for key, obj := range g.byKey {
		out[key] = g.reached[obj]
	}
	return out
}

func (g *reachGraph) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if g.decls[obj] != nil && !g.reached[obj] {
		g.reached[obj] = true
		g.work = append(g.work, obj)
	}
}

// walk marks everything the syntax of a reached declaration uses, and each
// method of a reached type that satisfies a counted interface, until nothing
// more is reached.
func (g *reachGraph) walk() {
	for {
		for len(g.work) > 0 {
			obj := g.work[len(g.work)-1]
			g.work = g.work[:len(g.work)-1]
			d := g.decls[obj]
			for _, node := range d.nodes {
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if used := d.info.Uses[id]; used != nil {
							g.mark(used)
						}
					}
					return true
				})
			}
		}
		for obj := range g.reached {
			g.markInterfaceMethods(obj)
		}
		if len(g.work) == 0 {
			return
		}
	}
}

func (g *reachGraph) markInterfaceMethods(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	for _, typ := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj().(*types.Func).Origin()
			if g.decls[m] == nil || g.reached[m] {
				continue
			}
			for _, u := range g.ifaces[m.Name()] {
				if (u.owner == nil || g.reached[u.owner]) && types.Implements(typ, u.iface) {
					g.mark(m)
					break
				}
			}
		}
	}
}

// ifaceUse is an interface a method may satisfy. A module interface counts
// once its declaration is reached; owner is nil for the others.
type ifaceUse struct {
	iface *types.Interface
	owner types.Object
}

// errorsInterfaces are the unnamed interfaces the errors package asserts on
// an error chain. They sit in function bodies, which the loader does not
// type-check in dependencies.
const errorsInterfaces = `package p

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfacesByMethod indexes by method name the named interfaces of every
// package the module imports, the module's own named interfaces, the unnamed
// interface types its code spells out, and errorsInterfaces.
func interfacesByMethod(pkgs []*analysis.Package, decls map[types.Object]*reachDecl) map[string][]ifaceUse {
	byMethod := map[string][]ifaceUse{}
	addIface := func(iface *types.Interface, owner types.Object) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byMethod[name] = append(byMethod[name], ifaceUse{iface, owner})
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				var owner types.Object
				if decls[tn] != nil {
					owner = tn
				}
				addIface(iface, owner)
			}
		}
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "errors.go", errorsInterfaces, 0)
	if err != nil {
		panic(err)
	}
	errs, err := new(types.Config).Check("p", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	visit(errs)
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), nil)
	for _, pkg := range pkgs {
		visit(pkg.Types)
		// The interface literal of a package-level interface declaration
		// counts through that declaration, once it is reached.
		declared := map[ast.Expr]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gen, ok := decl.(*ast.GenDecl); ok {
					for _, spec := range gen.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.TypeParams == nil && !ts.Assign.IsValid() {
							declared[ts.Type] = true
						}
					}
				}
			}
		}
		for expr, tv := range pkg.Info.Types {
			if iface, ok := tv.Type.(*types.Interface); ok && !declared[expr] {
				addIface(iface, nil)
			}
		}
	}
	return byMethod
}
