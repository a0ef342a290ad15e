package lint

import (
	"go/ast"
	"go/types"
)

// Confinedgo keeps the deterministic kernel single-threaded by
// construction: goroutine launches, sync.WaitGroup fan-in and channel
// creation are allowed only inside the concurrency quarantine —
// internal/parallel (the bounded worker pool that fans whole simulation
// cells out and joins their results back in cell order) and
// internal/watchdog (the wall-clock stuck-cell sentry and signal relay,
// which observe a sweep but never feed back into it) — and in _test.go
// files (tests may race the suite or time wall-clock overlap).
// Everywhere else a `go` statement would let scheduler timing perturb
// event order.
//
// sync.Mutex and sync.OnceValue stay legal: guarding state the parallel
// engine's workers share and memoizing immutable snapshots (the
// experiment drivers' shared topologies) are deterministic uses that
// create no goroutines.
var Confinedgo = &Analyzer{
	Name: "confinedgo",
	Doc: "forbid go statements, sync.WaitGroup and channel creation outside " +
		"internal/parallel and internal/watchdog (and _test.go files); the simulation kernel is single-threaded",
	Run: runConfinedgo,
}

func runConfinedgo(pass *Pass) error {
	if isConfinedPackage(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"go statement outside the concurrency quarantine (internal/parallel, internal/watchdog): concurrency in simulation code makes event order scheduler-dependent; fan work out through parallel.Run")
			case *ast.SelectorExpr:
				if obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.TypeName); ok &&
					obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					pass.Reportf(n.Pos(),
						"sync.WaitGroup outside the concurrency quarantine (internal/parallel, internal/watchdog): goroutine fan-in belongs to the bounded worker pool (parallel.Run)")
				}
			case *ast.CallExpr:
				if isMakeChan(pass.TypesInfo, n) {
					pass.Reportf(n.Pos(),
						"channel creation outside the concurrency quarantine (internal/parallel, internal/watchdog): channels imply concurrent producers, which the deterministic kernel forbids")
				}
			}
			return true
		})
	}
	return nil
}

// isMakeChan reports whether the call is make(chan ...).
func isMakeChan(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
