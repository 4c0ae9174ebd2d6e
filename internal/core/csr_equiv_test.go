package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// csrForms returns the Algorithm 1 program of cfg as BuildProblem emits it,
// with G in CSR form, and a copy carrying the densified G instead. Both
// share C, H, A, B, and Dims; only the carrier of G differs.
func csrForms(t *testing.T, cfg *taskgraph.Config) (csr, dense *socp.Problem) {
	t.Helper()
	p, err := BuildProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.G != nil || p.GSparse == nil {
		t.Fatal("BuildProblem did not emit a CSR-only constraint matrix")
	}
	return p, &socp.Problem{C: p.C, G: p.GSparse.ToDense(), H: p.H, A: p.A, B: p.B, Dims: p.Dims}
}

// sameSolutionBits reports the first difference between two solutions in
// status, iteration count, or any bit of X, S, Z, and Y.
func sameSolutionBits(got, want *socp.Solution) error {
	if got.Status != want.Status || got.Iterations != want.Iterations {
		return fmt.Errorf("status/iterations %v/%d vs %v/%d",
			got.Status, got.Iterations, want.Status, want.Iterations)
	}
	for _, v := range []struct {
		name      string
		got, want linalg.Vector
	}{{"X", got.X, want.X}, {"S", got.S, want.S}, {"Z", got.Z, want.Z}, {"Y", got.Y, want.Y}} {
		if len(v.got) != len(v.want) {
			return fmt.Errorf("|%s| = %d vs %d", v.name, len(v.got), len(v.want))
		}
		for i := range v.want {
			if math.Float64bits(v.got[i]) != math.Float64bits(v.want[i]) {
				return fmt.Errorf("%s[%d] = %v vs %v", v.name, i, v.got[i], v.want[i])
			}
		}
	}
	return nil
}

// TestCSRMatchesDensifiedG is the equivalence contract of the constraint
// matrix carrier: every Algorithm 1 program solves bit-identically (status,
// iteration count, and every bit of X, S, Z, Y) whether the solver receives
// G in CSR form or as its densified copy, with and without a pattern cache.
func TestCSRMatchesDensifiedG(t *testing.T) {
	withLatency := gen.PaperT1(0)
	withLatency.Graphs[0].Latencies = []taskgraph.LatencyConstraint{{From: "wa", To: "wb", Bound: 40}}
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"T1cap1", gen.PaperT1(1)},
		{"T1cap10", gen.PaperT1(10)},
		{"T2cap5", gen.PaperT2(5)},
		{"chain8", gen.Chain(gen.ChainOptions{Tasks: 8})},
		{"chainShared", gen.Chain(gen.ChainOptions{Tasks: 6, SharedProcessors: 2})},
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100})},
		{"ring5", gen.Ring(5, 2)},
		{"random0", gen.RandomJobs(gen.RandomOptions{Seed: 0})},
		{"random9", gen.RandomJobs(gen.RandomOptions{Seed: 9})},
		{"T1latency", withLatency},
	} {
		t.Run(tc.name, func(t *testing.T) {
			csr, dense := csrForms(t, tc.cfg)
			for _, cached := range []bool{false, true} {
				var csrOpt, denseOpt socp.Options
				if cached {
					csrOpt.Cache, denseOpt.Cache = socp.NewPatternCache(), socp.NewPatternCache()
				}
				want, err := socp.Solve(csr, csrOpt)
				if err != nil {
					t.Fatalf("cached=%v: CSR solve: %v", cached, err)
				}
				got, err := socp.Solve(dense, denseOpt)
				if err != nil {
					t.Fatalf("cached=%v: dense-G solve: %v", cached, err)
				}
				if err := sameSolutionBits(got, want); err != nil {
					t.Fatalf("cached=%v: dense-G vs CSR: %v", cached, err)
				}
			}
		})
	}
}

// TestCSRMatchesDensifiedGWarmSweep extends the equivalence to the warm
// sweep path: a 5-cap chain-100 sweep, each form with its own pattern cache
// and each point warm-started from the same form's previous solution.
func TestCSRMatchesDensifiedGWarmSweep(t *testing.T) {
	base := gen.Chain(gen.ChainOptions{Tasks: 100})
	csrCache, denseCache := socp.NewPatternCache(), socp.NewPatternCache()
	var csrWarm, denseWarm *socp.WarmStart
	for _, cap := range []int{8, 9, 10, 11, 12} {
		cfg := base.Clone()
		for _, tg := range cfg.Graphs {
			for j := range tg.Buffers {
				tg.Buffers[j].MaxContainers = cap
			}
		}
		csr, dense := csrForms(t, cfg)
		want, err := socp.SolveContext(context.Background(), csr, socp.Options{Cache: csrCache, WarmStart: csrWarm})
		if err != nil {
			t.Fatalf("cap %d: CSR solve: %v", cap, err)
		}
		got, err := socp.SolveContext(context.Background(), dense, socp.Options{Cache: denseCache, WarmStart: denseWarm})
		if err != nil {
			t.Fatalf("cap %d: dense-G solve: %v", cap, err)
		}
		if err := sameSolutionBits(got, want); err != nil {
			t.Fatalf("cap %d: dense-G vs CSR: %v", cap, err)
		}
		csrWarm, denseWarm = want.Warm(), got.Warm()
	}
}

// TestBuildProblemAllocBound guards the CSR-only build: the chain-100
// program (about 900 cone rows by 500 variables, under 2k nonzeros) must
// allocate well under the 3.6 MB its dense G alone would take.
func TestBuildProblemAllocBound(t *testing.T) {
	cfg := gen.Chain(gen.ChainOptions{Tasks: 100})
	if _, err := BuildProblem(cfg); err != nil {
		t.Fatal(err)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := BuildProblem(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1<<20 {
		t.Fatalf("BuildProblem(chain-100) allocated %d bytes per build, want < 1 MB", perOp)
	}
}
