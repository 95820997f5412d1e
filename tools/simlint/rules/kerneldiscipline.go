package rules

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"repro/tools/simlint/analysis"
)

// KernelDiscipline forbids concurrency the sim kernel cannot see: raw go
// statements, iter.Pull coroutines, the sync package, and native channel
// operations, everywhere except the whitelist exported by the sim package
// itself.
var KernelDiscipline = &analysis.Analyzer{
	Name: "kerneldiscipline",
	Doc: `forbid raw goroutines, coroutines, sync primitives and channels outside sim.

The kernel multiplexes sim threads cooperatively over virtual time: its
deadlock detector assumes it can see every runnable thread, and Sleep's
time-warp fast path assumes no one else advances state concurrently. A
raw goroutine, an iter.Pull/iter.Pull2 coroutine (which runs its sequence
on a goroutine of its own), sync.Mutex or native channel is invisible to
both — the classic way deadlock detection and time-warp go wrong. Use
Kernel.Spawn, sim.Mutex/Semaphore/Barrier and sim.Chan. The only blessed
exceptions are enumerated in sim.BlessedExternalGoroutines, which this
analyzer consumes directly.`,
	Run: runKernelDiscipline,
}

func runKernelDiscipline(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	blessedPkg := false
	for _, entry := range KernelBlessed {
		if entry == pkgPath {
			blessedPkg = true
		}
	}
	if blessedPkg {
		return nil
	}
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		fileEntry := pkgPath + "/" + filepath.Base(filename)
		blessedFile := false
		for _, entry := range KernelBlessed {
			if entry == fileEntry {
				blessedFile = true
			}
		}
		if blessedFile {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw goroutine is invisible to the sim kernel (deadlock detection and virtual time skip it); use sim.Kernel.Spawn, or bless this site in sim.BlessedExternalGoroutines")
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					break
				}
				switch obj.Pkg().Path() {
				case "sync":
					pass.Reportf(n.Pos(), "sync.%s blocks the host thread outside the kernel's view; use sim.Mutex/sim.Semaphore/sim.Barrier under kernel discipline", n.Sel.Name)
				case "iter":
					if obj.Name() == "Pull" || obj.Name() == "Pull2" {
						pass.Reportf(n.Pos(), "iter.%s starts a coroutine goroutine invisible to the sim kernel; use sim.Kernel.Spawn, or bless this site in sim.BlessedExternalGoroutines", n.Sel.Name)
					}
				}
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "raw channel send bypasses the sim kernel; use sim.Chan")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "raw channel receive bypasses the sim kernel; use sim.Chan")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select over raw channels bypasses the sim kernel; use sim.Chan and kernel threads")
			case *ast.RangeStmt:
				if t := pass.TypesInfo.Types[n.X].Type; t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(), "range over a raw channel bypasses the sim kernel; use sim.Chan")
					}
				}
			case *ast.CallExpr:
				if isBuiltin(pass.TypesInfo, n, "make") && len(n.Args) > 0 {
					if t := pass.TypesInfo.Types[n].Type; t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							pass.Reportf(n.Pos(), "raw channel is invisible to the sim kernel; use sim.NewChan")
						}
					}
				}
				if isBuiltin(pass.TypesInfo, n, "close") {
					pass.Reportf(n.Pos(), "close on a raw channel bypasses the sim kernel; use sim.Chan.Close")
				}
			}
			return true
		})
	}
	return nil
}
