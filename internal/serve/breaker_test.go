package serve

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gen"
	"repro/internal/socp"
)

// Synthetic ladder reports for the state-machine unit tests.

func cleanReport() *core.SolveReport {
	return &core.SolveReport{
		Recovered:    false,
		FinalBackend: "supernodal",
		Attempts:     []core.SolveAttempt{{Backend: "supernodal", Status: socp.StatusOptimal}},
	}
}

func recoveredReport(final string) *core.SolveReport {
	return &core.SolveReport{
		Recovered:    true,
		FinalBackend: final,
		Attempts: []core.SolveAttempt{
			{Backend: "supernodal", Status: socp.StatusNumericalError},
			{Backend: final, Status: socp.StatusOptimal},
		},
	}
}

func canceledReport() *core.SolveReport {
	return &core.SolveReport{
		Attempts: []core.SolveAttempt{{Backend: "supernodal", Status: socp.StatusCanceled}},
	}
}

// TestBreakerStateMachine walks the full closed → open → probe → closed
// cycle on the unit level, where every transition is a plain method call.
func TestBreakerStateMachine(t *testing.T) {
	const trip, probeEvery = 3, 2
	p := &pattern{}

	// Three consecutive recoveries open the breaker.
	for i := 0; i < trip; i++ {
		mode, _ := p.plan(probeEvery)
		if mode != modeNormal {
			t.Fatalf("request %d routed %v before trip", i, mode)
		}
		p.record(mode, recoveredReport("dense-factor"), trip)
	}
	if !p.open {
		t.Fatal("breaker closed after trip consecutive recoveries")
	}

	// Open: the first open-state request degrades to the known-good rung...
	mode, backend := p.plan(probeEvery)
	if mode != modeDegraded || backend != "dense-factor" {
		t.Fatalf("open-state routing %v/%q, want degraded/dense-factor", mode, backend)
	}
	p.record(mode, cleanReport(), trip)
	if !p.open {
		t.Fatal("a clean degraded solve must not close the breaker")
	}

	// ...and the probeEvery-th becomes the half-open probe.
	mode, _ = p.plan(probeEvery)
	if mode != modeProbe {
		t.Fatalf("routing %v, want probe on the %d-th open-state request", mode, probeEvery)
	}
	// A probe that still needs the ladder keeps the breaker open and follows
	// the rung that worked.
	p.record(mode, recoveredReport("dense-kkt"), trip)
	if !p.open || p.goodBackend != "dense-kkt" {
		t.Fatalf("after failed probe: open=%v good=%q, want open/dense-kkt", p.open, p.goodBackend)
	}

	// Walk to the next probe; a clean probe closes the breaker.
	if mode, _ = p.plan(probeEvery); mode != modeDegraded {
		t.Fatalf("routing %v, want degraded between probes", mode)
	}
	p.record(modeDegraded, cleanReport(), trip)
	mode, _ = p.plan(probeEvery)
	if mode != modeProbe {
		t.Fatalf("routing %v, want probe", mode)
	}
	p.record(mode, cleanReport(), trip)
	if p.open {
		t.Fatal("clean probe left the breaker open")
	}
	if p.consecutive != 0 {
		t.Fatalf("consecutive %d after close, want 0", p.consecutive)
	}
}

// TestBreakerIgnoresNonSignals pins the transitions that must NOT happen: a
// canceled solve and an exhausted ladder carry no routing signal.
func TestBreakerIgnoresNonSignals(t *testing.T) {
	const trip = 2
	p := &pattern{}

	p.record(modeNormal, recoveredReport("dense-factor"), trip)
	// Cancellations between recoveries neither reset nor advance the streak.
	p.record(modeNormal, canceledReport(), trip)
	if p.consecutive != 1 {
		t.Fatalf("consecutive %d after cancel, want 1 (no signal)", p.consecutive)
	}
	// An exhausted ladder (no recovery, terminal error) names no good rung;
	// the breaker must not open on it even at the trip threshold.
	p.record(modeNormal, &core.SolveReport{
		Recovered:    false,
		FinalBackend: "dense-kkt",
		Attempts:     []core.SolveAttempt{{Backend: "dense-kkt", Status: socp.StatusNumericalError}},
	}, trip)
	if p.open {
		t.Fatal("breaker opened on an exhausted ladder with no good backend")
	}
	// A clean solve resets the streak.
	p.record(modeNormal, cleanReport(), trip)
	if p.consecutive != 0 {
		t.Fatalf("consecutive %d after clean solve, want 0", p.consecutive)
	}
	// nil and empty reports are no-ops.
	p.record(modeNormal, nil, trip)
	p.record(modeNormal, &core.SolveReport{}, trip)
	if p.open || p.consecutive != 0 {
		t.Fatal("empty reports moved the breaker")
	}
}

// TestBreakerIntegration drives the breaker through real solves: an injected
// sparse-factorization fault makes every solve of one topology recover to
// the dense rung; after BreakerTrip of those the server routes the pattern
// straight to dense-factor (one attempt, no ladder tax), and once the fault
// clears, the scheduled probe closes the breaker again.
func TestBreakerIntegration(t *testing.T) {
	const trip, probeEvery = 2, 2
	s := newTestServer(t, Config{Workers: 1, BreakerTrip: trip, BreakerProbeEvery: probeEvery})
	cfg := gen.Chain(gen.ChainOptions{Tasks: 4})

	// Both sparse pipelines fail: the ladder lands on dense-factor.
	deactivate := faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError,
	})
	for i := 0; i < trip; i++ {
		res, mode, err := s.Solve(context.Background(), cfg, false)
		if err != nil || res.Status != core.StatusOptimal {
			t.Fatalf("solve %d: status %v err %v", i, res.Status, err)
		}
		if mode != modeNormal {
			t.Fatalf("solve %d routed %v before trip", i, mode)
		}
		if !res.Report.Recovered || res.Report.FinalBackend != "dense-factor" {
			t.Fatalf("solve %d report %+v, want recovery to dense-factor", i, res.Report)
		}
	}

	// Open: the degraded solve starts directly at dense-factor, so the
	// sparse fault site is never reached and the report shows one clean
	// attempt — the ladder tax is gone while the fault persists.
	res, mode, err := s.Solve(context.Background(), cfg, false)
	if err != nil || res.Status != core.StatusOptimal {
		t.Fatalf("degraded solve: status %v err %v", res.Status, err)
	}
	if mode != modeDegraded {
		t.Fatalf("routed %v, want degraded after trip", mode)
	}
	if res.Report.Recovered || len(res.Report.Attempts) != 1 {
		t.Fatalf("degraded report %+v, want a single clean dense attempt", res.Report)
	}
	if got := res.Report.FinalBackend; got != "dense-factor" {
		t.Fatalf("degraded backend %q, want dense-factor", got)
	}

	// The probe retries the full ladder while the fault persists: it pays
	// the tax once and the breaker stays open.
	res, mode, err = s.Solve(context.Background(), cfg, false)
	if err != nil || res.Status != core.StatusOptimal {
		t.Fatalf("probe solve: status %v err %v", res.Status, err)
	}
	if mode != modeProbe {
		t.Fatalf("routed %v, want probe on the %d-th open request", mode, probeEvery)
	}
	if !res.Report.Recovered {
		t.Fatal("probe under persistent fault did not need recovery")
	}

	// Fault clears. The next open-state request is still degraded, then the
	// following probe comes back clean and closes the breaker.
	deactivate()
	if _, mode, err = s.Solve(context.Background(), cfg, false); err != nil || mode != modeDegraded {
		t.Fatalf("post-clear routing %v err %v, want degraded until the probe", mode, err)
	}
	res, mode, err = s.Solve(context.Background(), cfg, false)
	if err != nil || mode != modeProbe {
		t.Fatalf("routing %v err %v, want probe", mode, err)
	}
	if res.Report.Recovered {
		t.Fatal("clean probe reported recovery")
	}
	res, mode, err = s.Solve(context.Background(), cfg, false)
	if err != nil || mode != modeNormal {
		t.Fatalf("routing %v err %v, want normal after the breaker closed", mode, err)
	}
	if res.Status != core.StatusOptimal {
		t.Fatalf("closed-breaker solve status %v", res.Status)
	}
}

// TestBreakerIsPerPattern checks isolation: tripping one topology's breaker
// must not degrade a different topology.
func TestBreakerIsPerPattern(t *testing.T) {
	const trip = 1
	s := newTestServer(t, Config{Workers: 1, BreakerTrip: trip})
	bad := gen.Chain(gen.ChainOptions{Tasks: 4})
	other := gen.FanOut(gen.FanOutOptions{Width: 3})

	deactivate := faultinject.Activate(faultinject.Rule{
		Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError,
	})
	if _, mode, err := s.Solve(context.Background(), bad, false); err != nil || mode != modeNormal {
		t.Fatalf("trip solve: mode %v err %v", mode, err)
	}
	deactivate()

	if _, mode, err := s.Solve(context.Background(), bad, false); err != nil || mode != modeDegraded {
		t.Fatalf("tripped pattern routed %v err %v, want degraded", mode, err)
	}
	if _, mode, err := s.Solve(context.Background(), other, false); err != nil || mode != modeNormal {
		t.Fatalf("unrelated pattern routed %v err %v, want normal", mode, err)
	}
	patterns, openNow, opensTotal := s.patterns.snapshot()
	if patterns != 2 || openNow != 1 || opensTotal != 1 {
		t.Fatalf("snapshot patterns=%d open=%d opens=%d, want 2/1/1", patterns, openNow, opensTotal)
	}
}

// TestBreakerForcedDenseKKT drives the breaker to the all-dense rung on a
// Builder-made problem: the sparse factorization fails for good and the
// dense factorizations fail once, so the ladder recovers on dense-kkt and
// the breaker opens on it. The degraded request forced straight to
// dense-kkt must then solve on its own, with no solver error.
func TestBreakerForcedDenseKKT(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, BreakerTrip: 1, BreakerProbeEvery: 10})
	cfg := gen.Chain(gen.ChainOptions{Tasks: 4})
	defer faultinject.Activate(
		faultinject.Rule{Site: faultinject.SiteSparseLDLT, Kind: faultinject.KindError},
		faultinject.Rule{Site: faultinject.SiteDenseCholesky, Kind: faultinject.KindError, Count: 1},
		faultinject.Rule{Site: faultinject.SiteDenseLDLT, Kind: faultinject.KindError, Count: 1},
	)()
	res, mode, err := s.Solve(context.Background(), cfg, false)
	if err != nil || res.Status != core.StatusOptimal || mode != modeNormal {
		t.Fatalf("trip solve: status %v mode %v err %v", res.Status, mode, err)
	}
	if !res.Report.Recovered || res.Report.FinalBackend != "dense-kkt" {
		t.Fatalf("trip report %+v, want recovery on dense-kkt", res.Report)
	}

	res, mode, err = s.Solve(context.Background(), cfg, false)
	if err != nil {
		t.Fatalf("forced dense-kkt solve: %v", err)
	}
	if mode != modeDegraded || res.Status != core.StatusOptimal {
		t.Fatalf("forced solve: mode %v status %v, want degraded and optimal", mode, res.Status)
	}
	if len(res.Report.Attempts) != 1 || res.Report.FinalBackend != "dense-kkt" || res.Report.Attempts[0].Err != "" {
		t.Fatalf("forced report %+v, want one clean dense-kkt attempt", res.Report)
	}
}
