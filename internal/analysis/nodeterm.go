package analysis

import (
	"go/ast"
	"strings"
)

// bannedImports are packages whose mere presence in a result-producing
// package is a determinism bug: every value they yield differs run to run.
var bannedImports = map[string]string{
	"math/rand":    "use the deterministic gameofcoins/internal/rng streams instead",
	"math/rand/v2": "use the deterministic gameofcoins/internal/rng streams instead",
	"crypto/rand":  "use the deterministic gameofcoins/internal/rng streams instead",
}

// bannedFuncs are ambient-state reads from otherwise legitimate packages:
// importing time for time.Duration arithmetic is fine, reading the wall clock
// is not.
var bannedFuncs = map[string]string{
	"time.Now":       "wall-clock reads make results differ run to run",
	"time.Since":     "wall-clock reads make results differ run to run",
	"time.Until":     "wall-clock reads make results differ run to run",
	"time.Sleep":     "timing-dependent control flow makes results scheduling-dependent",
	"time.After":     "timing-dependent control flow makes results scheduling-dependent",
	"time.AfterFunc": "timing-dependent control flow makes results scheduling-dependent",
	"time.Tick":      "timing-dependent control flow makes results scheduling-dependent",
	"time.NewTimer":  "timing-dependent control flow makes results scheduling-dependent",
	"time.NewTicker": "timing-dependent control flow makes results scheduling-dependent",
	"os.Getenv":      "process environment is ambient state invisible to the cache key",
	"os.LookupEnv":   "process environment is ambient state invisible to the cache key",
	"os.Environ":     "process environment is ambient state invisible to the cache key",
	"os.ExpandEnv":   "process environment is ambient state invisible to the cache key",
	"os.Getpid":      "process identity is ambient state invisible to the cache key",
	"os.Hostname":    "host identity is ambient state invisible to the cache key",
}

// Nodeterm forbids ambient nondeterminism — wall clock, global/OS randomness,
// process environment — inside the result-producing packages. Results must be
// a pure function of (canonical spec JSON, seed, version): that is what makes
// the result cache, restart recomputation, and distributed first-writer-wins
// publication sound. Code where wall-clock is legitimate (lease deadlines,
// heartbeats) either lives outside these packages or carries
// //goclint:allow nodeterm with a rationale.
var Nodeterm = &Analyzer{
	Name:      "nodeterm",
	Doc:       "forbid wall-clock, ambient randomness, and environment reads in result-producing packages",
	AppliesTo: IsDeterminismPackage,
	Run:       runNodeterm,
}

func runNodeterm(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if why, banned := bannedImports[path]; banned {
				pass.Reportf(imp.Pos(), "import of %s in a result-producing package: %s", path, why)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgName := usedPackage(pass.Pkg.Info, sel)
			if pkgName == nil {
				return true
			}
			name := pkgName.Imported().Path() + "." + sel.Sel.Name
			if why, banned := bannedFuncs[name]; banned {
				pass.Reportf(sel.Pos(), "call of %s in a result-producing package: %s", name, why)
			}
			return true
		})
	}
	return nil
}
