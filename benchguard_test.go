package courserank

import (
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds keeps bench/ under tier-1. bench/ is a nested
// module, invisible to this module's `go build ./...` and `go test
// ./...`, yet it compiles against some sixty internal symbols, re-states
// every handler's call sequence (bench/twin.go) and mirrors /api/stats
// (bench/proc.go): a rename here would otherwise surface only when the
// benchmark driver runs. -short leaves out the timing-dependent smoke
// run of all four workloads.
func TestBenchModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-short", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("(cd bench && go %v): %v\n%s", args, err, out)
		}
	}
}
