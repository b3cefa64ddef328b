package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"gameofcoins/internal/analysis"
	"gameofcoins/internal/analysis/analysistest"
)

// The golden suites: each exercises positive findings (the `// want` lines),
// negative space (idiomatic code that must stay silent), and
// //goclint:allow suppression in one package under testdata/src.

func TestNodetermGolden(t *testing.T) {
	analysistest.Run(t, "nodeterm", analysis.Nodeterm)
}

func TestMaporderGolden(t *testing.T) {
	analysistest.Run(t, "maporder", analysis.Maporder)
}

func TestRngforkGolden(t *testing.T) {
	analysistest.Run(t, "rngfork", analysis.Rngfork)
}

func TestErrdropGolden(t *testing.T) {
	analysistest.Run(t, "errdrop", analysis.Errdrop)
}

func TestLockguardGolden(t *testing.T) {
	analysistest.Run(t, "lockguard", analysis.Lockguard)
}

func TestBlockinglockGolden(t *testing.T) {
	analysistest.Run(t, "blockinglock", analysis.Blockinglock)
}

func TestLockorderGolden(t *testing.T) {
	analysistest.Run(t, "lockorder", analysis.Lockorder)
}

func TestCtxleakGolden(t *testing.T) {
	analysistest.Run(t, "ctxleak", analysis.Ctxleak)
}

// TestAppliesTo pins the package scoping: the determinism rules bind the
// result-producing packages and stay out of the serving/scheduling layers
// (whose wall-clock use is legitimate), while errdrop does the reverse.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		path     string
		want     bool
	}{
		{analysis.Nodeterm, "gameofcoins/internal/core", true},
		{analysis.Nodeterm, "gameofcoins/internal/engine", true},
		{analysis.Nodeterm, "gameofcoins/internal/equilibria", true},
		{analysis.Nodeterm, "gameofcoins/internal/server", false},
		{analysis.Nodeterm, "gameofcoins/internal/dist", false},
		{analysis.Rngfork, "gameofcoins/internal/replay", true},
		{analysis.Rngfork, "gameofcoins/internal/server", false},
		{analysis.Errdrop, "gameofcoins/internal/server", true},
		{analysis.Errdrop, "gameofcoins/internal/store", true},
		{analysis.Errdrop, "gameofcoins/internal/core", false},
		{analysis.Lockguard, "gameofcoins/internal/server", true},
		{analysis.Lockguard, "gameofcoins/internal/engine", true},
		{analysis.Lockguard, "gameofcoins/internal/traffic", true},
		{analysis.Lockguard, "gameofcoins/internal/core", false},
		{analysis.Blockinglock, "gameofcoins/internal/store", true},
		{analysis.Blockinglock, "gameofcoins/internal/dist", true},
		{analysis.Blockinglock, "gameofcoins/internal/equilibria", false},
		{analysis.Lockorder, "gameofcoins/internal/engine", true},
		{analysis.Lockorder, "gameofcoins/internal/rng", false},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
	if analysis.Maporder.AppliesTo != nil {
		t.Error("maporder is a universal rule; AppliesTo should be nil")
	}
}

// TestUnusedAllows pins the stale-directive report: a //goclint:allow that
// suppresses a live finding is used; one whose hazard was fixed underneath
// it — or that names a rule that does not exist — surfaces from
// LintWithUnused so `goclint -unused-allows` can warn about it.
func TestUnusedAllows(t *testing.T) {
	src := filepath.Join("testdata", "src", "unusedallow")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(src, "a.go"), nil,
		parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckFiles(src, "unusedallow", fset, []*ast.File{f})
	if err != nil {
		t.Fatal(err)
	}
	errdrop := *analysis.Errdrop
	errdrop.AppliesTo = nil
	diags, unused, err := analysis.LintWithUnused(
		[]*analysis.Package{pkg}, []*analysis.Analyzer{&errdrop})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding should have been suppressed: %s", d)
	}
	if len(unused) != 2 {
		t.Fatalf("got %d unused allows, want 2: %v", len(unused), unused)
	}
	// Sorted by position: clean's stale errdrop first, then ghost's typo.
	if unused[0].Rule != "errdrop" || unused[1].Rule != "nosuchrule" {
		t.Errorf("unused rules = [%s, %s], want [errdrop, nosuchrule]",
			unused[0].Rule, unused[1].Rule)
	}
	for _, u := range unused {
		if !strings.Contains(u.String(), "unused //goclint:allow") {
			t.Errorf("unused allow renders as %q; want the directive named", u)
		}
	}
}

// TestSelfClean gates the suite on its own codebase: goclint must pass over
// the full module, so `go test ./...` fails the moment a determinism
// violation lands anywhere — the same check scripts/lint.sh runs in CI, held
// here too so the gate survives even where only the test step runs.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.LoadPackages("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost most of the module", len(pkgs))
	}
	diags, err := analysis.Lint(pkgs, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("goclint finding: %s", d)
	}
}
