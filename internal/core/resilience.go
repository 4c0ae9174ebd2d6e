package core

import (
	"context"
	"time"

	"repro/internal/socp"
)

// The recovery ladder: a numerically degenerate instance that breaks the
// default sparse KKT pipeline is retried with progressively more
// conservative solver configurations before the failure is surfaced —
// escalated static regularization first (the cheap fix that rescues most
// near-singular scalings, cf. ECOS's delta-regularization), then the dense
// factorization of the sparsely assembled KKT system, then the all-dense
// oracle path. Every attempt is recorded in a SolveReport so operators can
// see which rung rescued a solve and how much it cost.

// kktRegEscalation multiplies the effective static regularization on the
// first retry (1e-13 default → 1e-9, the same order CVXOPT-style solvers
// use when a KKT system is found near-singular).
const kktRegEscalation = 1e4

// SolveAttempt records one rung of the recovery ladder.
type SolveAttempt struct {
	// Backend names the KKT configuration: "supernodal" (blocked sparse
	// LDLᵀ), "sparse" (simplicial LDLᵀ), "dense-factor" (sparse assembly,
	// dense factorization), or "dense-kkt" (the all-dense oracle).
	Backend string
	// KKTReg is the static regularization requested from the solver
	// (0 means the solver default).
	KKTReg float64
	// Warm reports that the attempt ran from a caller-supplied warm start.
	// Ladder rungs after the first warm attempt always run cold: a bad warm
	// start is itself a plausible cause of numerical failure, so dropping it
	// is the cheapest recovery of all and precedes any backend change.
	Warm bool
	// Status is the solver's outcome for this attempt.
	Status socp.Status
	// Err carries a hard solver error ("" when the solver returned a
	// status, which is the common case).
	Err string
	// Iterations is the interior-point iteration count of the attempt.
	Iterations int
	// Duration is the attempt's wall-clock solve time. It is reporting
	// only: no retry or fallback decision depends on it.
	Duration time.Duration
}

// SolveReport is the structured record of a conic solve and its recovery
// attempts, attached to every Result.
type SolveReport struct {
	// Attempts lists every solver invocation in the order tried; the last
	// entry is the one whose outcome the Result reflects.
	Attempts []SolveAttempt
	// FinalBackend is the backend of the last attempt.
	FinalBackend string
	// Recovered reports that the solve needed the ladder: at least one
	// attempt failed numerically and a later, more conservative attempt
	// did not.
	Recovered bool
}

// OptionsForBackend returns base reconfigured to start solving directly at
// the named recovery-ladder rung — "sparse", "supernodal", "dense-factor",
// or "dense-kkt", the names SolveAttempt.Backend reports — with the
// ladder's escalated regularization already applied and any warm start
// dropped, exactly as if the earlier rungs had been tried and skipped.
// The serving layer's per-pattern circuit breaker uses it to send requests
// for a topology that repeatedly needed recovery straight to the rung that
// rescued it. The bool is false for an unknown backend name, with base
// returned unchanged.
func OptionsForBackend(base socp.Options, backend string) (socp.Options, bool) {
	o := base
	o.WarmStart = nil
	if o.KKTReg == 0 {
		o.KKTReg = 1e-13
	}
	o.KKTReg *= kktRegEscalation
	switch backend {
	case "sparse":
		o.DenseKKT = false
		o.Factorization = socp.FactorSparse
	case "supernodal":
		o.DenseKKT = false
		o.Factorization = socp.FactorSupernodal
	case "dense-factor":
		o.DenseKKT = false
		o.Factorization = socp.FactorDense
	case "dense-kkt":
		o.DenseKKT = true
	default:
		return base, false
	}
	return o, true
}

// backendName names the KKT configuration an Options selects for a problem
// whose reduced KKT system has dimension kktDim (a FactorAuto choice
// resolves by dimension, so the report names the backend that actually ran).
func backendName(opt socp.Options, kktDim int) string {
	switch {
	case opt.DenseKKT:
		return "dense-kkt"
	case opt.Factorization == socp.FactorDense:
		return "dense-factor"
	case socp.ResolveFactorization(opt.Factorization, kktDim) == socp.FactorSupernodal:
		return "supernodal"
	default:
		return "sparse"
	}
}

// ladder returns the solver configurations to try in order: the caller's
// own options first (so unfaulted solves are bit-identical to a direct
// socp.Solve), then — when the first attempt was warm-started — the same
// configuration from the cold start, then escalated regularization on the
// same backend, then each structurally simpler backend — the simplicial
// sparse factorization when the resolved starting point was supernodal, the
// dense factorization, and finally the all-dense oracle — skipping rungs
// the starting configuration already is at or past. Every rung after the
// first runs cold: reusing a warm start that just failed would re-import
// the failure. kktDim resolves FactorAuto; denseFits gates the dense-kkt
// rung, which densifies G when it runs and is therefore offered only to
// problems below socp.DenseKKTMaxCells (the dense G of the instances that
// select the supernodal backend would be gigabytes).
func ladder(opt socp.Options, kktDim int, denseFits bool) []socp.Options {
	steps := []socp.Options{opt}
	if opt.WarmStart != nil {
		cold := opt
		cold.WarmStart = nil
		steps = append(steps, cold)
	}
	esc := opt
	esc.WarmStart = nil
	if esc.KKTReg == 0 {
		esc.KKTReg = 1e-13 // the solver's own default, made explicit to scale
	}
	esc.KKTReg *= kktRegEscalation
	steps = append(steps, esc)
	if !opt.DenseKKT && socp.ResolveFactorization(opt.Factorization, kktDim) == socp.FactorSupernodal {
		sp := esc
		sp.Factorization = socp.FactorSparse
		steps = append(steps, sp)
	}
	if !opt.DenseKKT && opt.Factorization != socp.FactorDense {
		df := esc
		df.Factorization = socp.FactorDense
		steps = append(steps, df)
	}
	if !opt.DenseKKT && denseFits {
		dk := esc
		dk.DenseKKT = true
		steps = append(steps, dk)
	}
	return steps
}

// numericalFailure reports whether an attempt's outcome is the class of
// failure the ladder can recover from. Hard validation errors (nil
// solution), infeasibility certificates, iteration limits, and cancellation
// are all terminal: retrying with a different factorization cannot change
// them.
func numericalFailure(sol *socp.Solution, err error) bool {
	return sol != nil && sol.Status == socp.StatusNumericalError
}

// solveConic runs the cone program through the recovery ladder and reports
// every attempt. The returned solution and error are those of the last
// attempt made; the report is never nil.
func solveConic(ctx context.Context, prob *socp.Problem, opt socp.Options) (*socp.Solution, *SolveReport, error) {
	report := &SolveReport{}
	kktDim := len(prob.C)
	if prob.A != nil {
		kktDim += prob.A.Rows
	}
	var sol *socp.Solution
	var err error
	for k, aopt := range ladder(opt, kktDim, prob.DenseKKTFits()) {
		if k > 0 && ctx.Err() != nil {
			// Canceled between rungs: stop retrying, keep the report of the
			// attempts that did run. The last attempt's solution (a
			// numerical failure) stands.
			break
		}
		start := time.Now()
		sol, err = socp.SolveContext(ctx, prob, aopt)
		a := SolveAttempt{
			Backend:  backendName(aopt, kktDim),
			KKTReg:   aopt.KKTReg,
			Warm:     aopt.WarmStart != nil,
			Duration: time.Since(start),
		}
		if sol != nil {
			a.Status = sol.Status
			a.Iterations = sol.Iterations
		}
		if err != nil {
			a.Err = err.Error()
		}
		report.Attempts = append(report.Attempts, a)
		report.FinalBackend = a.Backend
		if !numericalFailure(sol, err) {
			report.Recovered = k > 0
			return sol, report, err
		}
	}
	return sol, report, err
}
