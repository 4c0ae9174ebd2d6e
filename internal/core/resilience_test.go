package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/socp"
)

// Every degradation path of the resilient pipeline is exercised here by
// injecting the fault that triggers it: each rung of the recovery ladder,
// the NaN-RHS breakdown, cancellation before and during the interior-point
// loop, and sweep workers that panic or stall.

func ladderSolve(t *testing.T, opt Options) *Result {
	t.Helper()
	res, err := Solve(context.Background(), gen.PaperT1(3), opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	return res
}

func TestLadderEscalatedRegRecovers(t *testing.T) {
	// Break exactly the first sparse factorization: attempt 1 dies in the
	// initial point, attempt 2 (same backend, escalated KKTReg) succeeds.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError, Count: 1,
	})()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 2 {
		t.Fatalf("report = %+v, want 2 attempts", rep)
	}
	if rep.Attempts[0].Status != socp.StatusNumericalError {
		t.Fatalf("attempt 0 status = %v, want numerical error", rep.Attempts[0].Status)
	}
	if !strings.Contains(rep.Attempts[0].Err, "injected fault") {
		t.Fatalf("attempt 0 err = %q, want the injected fault", rep.Attempts[0].Err)
	}
	if rep.Attempts[1].Status != socp.StatusOptimal || rep.Attempts[1].Backend != "sparse" {
		t.Fatalf("attempt 1 = %+v, want optimal on sparse", rep.Attempts[1])
	}
	if want := 1e-13 * kktRegEscalation; rep.Attempts[1].KKTReg != want {
		t.Fatalf("attempt 1 KKTReg = %v, want %v", rep.Attempts[1].KKTReg, want)
	}
	if !rep.Recovered || rep.FinalBackend != "sparse" {
		t.Fatalf("report = %+v, want recovered on sparse", rep)
	}
}

func TestLadderFallsBackToDenseFactor(t *testing.T) {
	// Sparse factorization broken for good: both sparse rungs fail and the
	// dense factorization of the sparse assembly rescues the solve.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError,
	})()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 3 {
		t.Fatalf("report = %+v, want 3 attempts", rep)
	}
	for k := 0; k < 2; k++ {
		if rep.Attempts[k].Status != socp.StatusNumericalError || rep.Attempts[k].Backend != "sparse" {
			t.Fatalf("attempt %d = %+v, want sparse numerical error", k, rep.Attempts[k])
		}
	}
	if rep.Attempts[2].Status != socp.StatusOptimal || rep.Attempts[2].Backend != "dense-factor" {
		t.Fatalf("attempt 2 = %+v, want optimal on dense-factor", rep.Attempts[2])
	}
	if !rep.Recovered || rep.FinalBackend != "dense-factor" {
		t.Fatalf("report = %+v, want recovered on dense-factor", rep)
	}
}

func TestLadderFallsBackToDenseOracle(t *testing.T) {
	// Sparse broken for good, and the dense factorization's first hit (the
	// dense-factor rung's initial point) broken too: only the all-dense
	// oracle rung survives.
	defer faultinject.Activate(
		faultinject.Rule{Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError},
		faultinject.Rule{Site: faultinject.SiteDenseCholesky, Kind: faultinject.KindError, Count: 1},
		faultinject.Rule{Site: faultinject.SiteDenseLDLT, Kind: faultinject.KindError, Count: 1},
	)()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 4 {
		t.Fatalf("report = %+v, want 4 attempts", rep)
	}
	if rep.Attempts[2].Status != socp.StatusNumericalError || rep.Attempts[2].Backend != "dense-factor" {
		t.Fatalf("attempt 2 = %+v, want dense-factor numerical error", rep.Attempts[2])
	}
	if rep.Attempts[3].Status != socp.StatusOptimal || rep.Attempts[3].Backend != "dense-kkt" {
		t.Fatalf("attempt 3 = %+v, want optimal on dense-kkt", rep.Attempts[3])
	}
	if !rep.Recovered || rep.FinalBackend != "dense-kkt" {
		t.Fatalf("report = %+v, want recovered on dense-kkt", rep)
	}
}

// TestLadderReachesDenseKKTOnBuilderProblems pins the full ladder on a
// Builder-made program that no rung rescues (a known numerical defect of
// RandomDAG seed 5185738762941758416 at 45 tasks): the solve must still try
// every rung through the all-dense oracle, and every rung must end in a
// solver status, never a hard error such as a carrier mismatch.
func TestLadderReachesDenseKKTOnBuilderProblems(t *testing.T) {
	cfg := gen.RandomDAG(gen.DAGOptions{Seed: 5185738762941758416, Tasks: 45})
	res, err := Solve(context.Background(), cfg, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []string{"sparse", "sparse", "dense-factor", "dense-kkt"}
	rep := res.Report
	if rep == nil || len(rep.Attempts) != len(want) {
		t.Fatalf("report = %+v, want %d attempts", rep, len(want))
	}
	for k, a := range rep.Attempts {
		if a.Backend != want[k] || a.Status != socp.StatusNumericalError || a.Err != "" {
			t.Fatalf("attempt %d = %+v, want %s ending in a numerical error status", k, a, want[k])
		}
	}
}

func TestLadderRecoversFromNaNRHS(t *testing.T) {
	// Poison the KKT right-hand side of the first factored solve with NaNs:
	// the iteration collapses numerically and the retry (with the injection
	// spent) succeeds.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteKKTRHS, Kind: faultinject.KindNaN, Count: 1,
	})()
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) < 2 {
		t.Fatalf("report = %+v, want at least 2 attempts", rep)
	}
	if rep.Attempts[0].Status != socp.StatusNumericalError {
		t.Fatalf("attempt 0 status = %v, want numerical error", rep.Attempts[0].Status)
	}
	if last := rep.Attempts[len(rep.Attempts)-1]; last.Status != socp.StatusOptimal {
		t.Fatalf("final attempt = %+v, want optimal", last)
	}
	if !rep.Recovered {
		t.Fatalf("report = %+v, want recovered", rep)
	}
}

func TestSolvePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, gen.PaperT1(3), Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Status != StatusCanceled || res.SolverStatus != socp.StatusCanceled {
		t.Fatalf("status = %v (solver %v), want canceled", res.Status, res.SolverStatus)
	}
	if res.Report == nil || len(res.Report.Attempts) != 1 || res.Report.Recovered {
		t.Fatalf("report = %+v, want one unrecovered attempt", res.Report)
	}
}

func TestCancelDuringIPMIterationYieldsCanceled(t *testing.T) {
	// Stall the solver at the top of its second interior-point iteration,
	// cancel while it is parked there, release it, and require a prompt
	// StatusCanceled — not a misleading StatusMaxIterations after burning
	// the full iteration allowance against a dead context.
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteIPMIteration, Kind: faultinject.KindStall,
		After: 1, Count: 1, Gate: gate, Stalled: stalled,
	})()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := Solve(ctx, gen.PaperT1(3), Options{})
		done <- outcome{res, err}
	}()
	<-stalled
	cancel()
	close(gate)
	out := <-done
	if out.err != nil {
		t.Fatalf("Solve: %v", out.err)
	}
	if out.res.Status != StatusCanceled || out.res.SolverStatus != socp.StatusCanceled {
		t.Fatalf("status = %v (solver %v), want canceled", out.res.Status, out.res.SolverStatus)
	}
}

func TestRunSweepPanicIsolation(t *testing.T) {
	// Job 2 panics (via the injected fault); every other job completes and
	// the panic surfaces as an indexed error carrying the captured stack.
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSweepJob(2), Kind: faultinject.KindPanic,
	})()
	const n = 6
	for _, par := range []int{1, 3} {
		results, err := RunSweep(context.Background(), n, par, func(ctx context.Context, i int) (int, error) {
			return i + 1, nil
		})
		var pe *JobPanicError
		if !errors.As(err, &pe) {
			t.Fatalf("parallelism %d: err = %v, want a JobPanicError", par, err)
		}
		if pe.Index != 2 || len(pe.Stack) == 0 {
			t.Fatalf("parallelism %d: panic error = index %d, %d stack bytes", par, pe.Index, len(pe.Stack))
		}
		if !strings.Contains(err.Error(), "forced panic") {
			t.Fatalf("parallelism %d: err %q does not carry the panic value", par, err)
		}
		for i, v := range results {
			want := i + 1
			if i == 2 {
				want = 0 // the panicking job's slot stays zero
			}
			if v != want {
				t.Fatalf("parallelism %d: results[%d] = %d, want %d", par, i, v, want)
			}
		}
	}
}

func TestRunSweepMidCancelKeepsPartialResults(t *testing.T) {
	// Stall job 3, cancel mid-sweep, release: the sweep returns promptly
	// with every job dispatched before the cancellation completed and the
	// context error in the aggregate.
	gate := make(chan struct{})
	stalled := make(chan struct{})
	defer faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSweepJob(3), Kind: faultinject.KindStall,
		Gate: gate, Stalled: stalled,
	})()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		results []int
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		results, err := RunSweep(ctx, 8, 2, func(ctx context.Context, i int) (int, error) {
			return i + 1, nil
		})
		done <- outcome{results, err}
	}()
	<-stalled
	cancel()
	close(gate)
	out := <-done
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the aggregate", out.err)
	}
	if len(out.results) != 8 {
		t.Fatalf("got %d result slots, want 8 (partial results surfaced)", len(out.results))
	}
	// Job 3 was dispatched (it stalled), so jobs 0–3 were all dispatched
	// before the cancellation and must have completed.
	for i := 0; i <= 3; i++ {
		if out.results[i] != i+1 {
			t.Fatalf("results[%d] = %d, want %d", i, out.results[i], i+1)
		}
	}
}

// TestSolveUnfaultedMatchesDirectSolver is the acceptance criterion that the
// ladder is invisible on healthy inputs: one attempt, no recovery, and the
// relaxed optimum bit-identical to a direct call into the cone solver with
// the same options.
func TestSolveUnfaultedMatchesDirectSolver(t *testing.T) {
	cfg := gen.PaperT1(3)
	res := ladderSolve(t, Options{})
	rep := res.Report
	if rep == nil || len(rep.Attempts) != 1 || rep.Recovered {
		t.Fatalf("report = %+v, want exactly one unrecovered attempt", rep)
	}
	prob, err := BuildProblem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := socp.Solve(prob, socp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.ContinuousObjective) != math.Float64bits(sol.PrimalObj) {
		t.Fatalf("objective %v differs from direct solver's %v", res.ContinuousObjective, sol.PrimalObj)
	}
}
