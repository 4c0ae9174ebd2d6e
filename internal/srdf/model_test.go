package srdf_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/gen"
	"repro/internal/srdf"
	"repro/internal/taskgraph"
)

// TestMinPeriodCertifiedOnMappings checks MinPeriod on the SRDF models of
// the optimal mappings of a 100-task chain and of 300-task random DAGs
// (seeds 1 and 2): the period passes the strict feasibility test and is
// within 1e-12 relative of the bisection oracle.
func TestMinPeriodCertifiedOnMappings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *taskgraph.Config
	}{
		{"chain100", gen.Chain(gen.ChainOptions{Tasks: 100})},
		{"dag300/seed1", gen.RandomDAG(gen.DAGOptions{Seed: 1, Tasks: 300})},
		{"dag300/seed2", gen.RandomDAG(gen.DAGOptions{Seed: 2, Tasks: 300})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := core.Solve(context.Background(), tc.cfg, core.Options{SkipVerification: true})
			if err != nil || res.Status != core.StatusOptimal {
				t.Fatalf("solve: %v %v", res.Status, err)
			}
			g, _, err := dfmodel.BuildGraph(tc.cfg, tc.cfg.Graphs[0], res.Mapping)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.MinPeriod()
			if err != nil {
				t.Fatal(err)
			}
			want, err := srdf.MinPeriodBisect(g)
			if err != nil {
				t.Fatal(err)
			}
			if !srdf.FeasibleExact(g, got) {
				t.Fatalf("MinPeriod %v fails the feasibility test", got)
			}
			if d := math.Abs(got-want) / want; d > 1e-12 {
				t.Fatalf("MinPeriod %v, bisection oracle %v (rel diff %.3g)", got, want, d)
			}
		})
	}
}
