package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/linalg"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memCost is what one measured call allocated and how many GC cycles ran
// while it did.
type memCost struct {
	allocBytes uint64
	gcCycles   uint32
}

// measured runs fn and returns its wall time and allocation cost. The
// runtime statistics are read outside the timed interval.
func measured(fn func()) (time.Duration, memCost) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, memCost{allocBytes: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}
}

// kktSolvesPerIter is the number of refined triangular solves the linalg
// per-iteration cost estimate assumes for one interior-point iteration: a
// predictor and a corrector KKT solve, each one solve plus one outer
// refinement pass. Each iteration is also assumed to assemble the normal
// equations once and factorize them once.
const kktSolvesPerIter = 4

// linalgProfile is the linear-algebra cost of one instance, measured on its
// own normal-equations matrix H = GᵀG (the pattern the interior-point method
// refactorizes every iteration) with the backend the solver would pick.
type linalgProfile struct {
	backend                       socp.Factorization
	kktDim, nnzL, supernodes      int
	plan, assemble, analyze       time.Duration
	factor, trisolve              time.Duration
	problemRows, problemCols, nnz int
}

// perIter is the estimated linalg time of one interior-point iteration.
func (p linalgProfile) perIter() time.Duration {
	return p.assemble + p.factor + kktSolvesPerIter*p.trisolve
}

// profileLinalg times each linalg entry point reps times on prob's normal
// equations and keeps the medians.
func profileLinalg(prob *socp.Problem, reps int) (linalgProfile, error) {
	gsp := prob.GSparse
	if gsp == nil {
		gsp = linalg.NewSparseFromDense(prob.G)
	}
	kkt := len(prob.C)
	if prob.A != nil {
		kkt += prob.A.Rows
	}
	p := linalgProfile{
		backend: socp.ResolveFactorization(socp.FactorAuto, kkt),
		kktDim:  kkt, problemRows: gsp.Rows, problemCols: gsp.Cols, nnz: gsp.NNZ(),
	}
	var plan, asm, ana, fac, tri []float64
	var ata *linalg.SparseAtA
	var sym *linalg.SymbolicFactor
	for i := 0; i < reps; i++ {
		plan = append(plan, timeIt(func() { ata = linalg.NewSparseAtA(gsp) }))
		asm = append(asm, timeIt(func() { ata.Compute(gsp) }))
		ana = append(ana, timeIt(func() { sym = linalg.Analyze(ata.Result, nil) }))
	}
	h := ata.Result
	reg := 1e-13 * (1 + h.NormInf())
	rhs := linalg.NewVector(h.Rows)
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	x := linalg.NewVector(h.Rows)
	type factor interface {
		Factorize(a *linalg.SparseMatrix, shift, reg float64) error
		SolveRefined(a *linalg.SparseMatrix, b, x linalg.Vector)
	}
	var f factor
	if p.backend == socp.FactorSupernodal {
		f = sym.NewSupernodal(1)
	} else {
		f = sym.NewNumeric()
	}
	for i := 0; i < reps; i++ {
		var err error
		fac = append(fac, timeIt(func() { err = f.Factorize(h, reg, reg) }))
		if err != nil {
			return p, fmt.Errorf("factorizing the normal equations: %w", err)
		}
		tri = append(tri, timeIt(func() { f.SolveRefined(h, rhs, x) }))
	}
	p.plan, p.assemble, p.analyze = fromMS(median(plan)), fromMS(median(asm)), fromMS(median(ana))
	p.factor, p.trisolve = fromMS(median(fac)), fromMS(median(tri))
	p.nnzL = sym.NNZL()
	p.supernodes = sym.Supernodal().NumSupernodes()
	return p, nil
}

// profiler memoizes linalg profiles by constraint-matrix shape, so a
// replay profiles each distinct pattern once.
type profiler struct {
	reps    int
	byShape map[[3]int]linalgProfile
}

func newProfiler(reps int) *profiler {
	return &profiler{reps: reps, byShape: map[[3]int]linalgProfile{}}
}

func (pf *profiler) of(prob *socp.Problem) (linalgProfile, error) {
	key := [3]int{len(prob.H), len(prob.C), 0}
	if prob.GSparse != nil {
		key[2] = prob.GSparse.NNZ()
	}
	if p, ok := pf.byShape[key]; ok {
		return p, nil
	}
	p, err := profileLinalg(prob, pf.reps)
	if err == nil {
		pf.byShape[key] = p
	}
	return p, err
}

func timeIt(fn func()) float64 {
	start := time.Now()
	fn()
	return ms(time.Since(start))
}

func fromMS(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// setLinalg reports a profile's per-layer metrics.
func setLinalg(r *report, p linalgProfile) {
	r.set("linalg.plan_ms", ms(p.plan))
	r.set("linalg.assemble_ms", ms(p.assemble))
	r.set("linalg.analyze_ms", ms(p.analyze))
	r.set("linalg.factor_ms", ms(p.factor))
	r.set("linalg.trisolve_ms", ms(p.trisolve))
	r.set("linalg.kkt_dim", float64(p.kktDim))
	r.set("linalg.nnz_l", float64(p.nnzL))
	r.set("linalg.supernodes", float64(p.supernodes))
	r.notes["linalg"] = map[string]any{
		"backend": p.backend.String(), "gRows": p.problemRows, "gCols": p.problemCols, "gNNZ": p.nnz,
		"assumedPerIteration": fmt.Sprintf("1 assemble + 1 factor + %d refined solves", kktSolvesPerIter),
	}
}

// layerTotals accumulates the traced replay of a workload's operations.
type layerTotals struct {
	build, solve, verify, parse time.Duration
	iters, hotExits             int
	linalgEst                   time.Duration // iterations × per-iteration linalg estimate
	traced, untraced            time.Duration // replay root spans vs the untraced operations
	ops                         int           // replayed operations (points, solves, requests)
	gc                          uint32        // GC cycles during the untraced operations
	alloc                       uint64        // bytes allocated by the untraced operations
	gDense                      bool

	// The allocation pass replays the first operations once more with
	// runtime statistics read around every call; reading them stops the
	// world, so the timed replay does not.
	memOps                 int
	buildAlloc, solveAlloc uint64
}

// layers calls each layer's public entry point for one replayed operation,
// inside a span of the operation's root (timed pass) or between runtime
// statistics reads (allocation pass).
type layers struct {
	t       *layerTotals
	tr      *tracer
	op      int
	root    int
	memPass bool
}

// call runs fn as the named layer call and returns its duration and
// allocated bytes (0 on the timed pass).
func (l *layers) call(name string, fn func()) (time.Duration, uint64) {
	if l.memPass {
		d, mc := measured(fn)
		return d, mc.allocBytes
	}
	return l.tr.timed(name, l.op, l.root, fn), 0
}

func (l *layers) build(cfg *taskgraph.Config) (*socp.Problem, error) {
	var p *socp.Problem
	var err error
	d, b := l.call("core.BuildProblem", func() { p, err = core.BuildProblem(cfg) })
	l.add(&l.t.build, d, &l.t.buildAlloc, b)
	if err == nil {
		l.t.gDense = p.G != nil
	}
	return p, err
}

func (l *layers) solve(ctx context.Context, p *socp.Problem, opt socp.Options) (*socp.Solution, error) {
	var sol *socp.Solution
	var err error
	d, b := l.call("socp.SolveContext", func() { sol, err = socp.SolveContext(ctx, p, opt) })
	l.add(&l.t.solve, d, &l.t.solveAlloc, b)
	return sol, err
}

func (l *layers) verify(cfg *taskgraph.Config, m *taskgraph.Mapping) {
	d, _ := l.call("dfmodel.Verify", func() { _, _ = dfmodel.Verify(cfg, m) })
	l.add(&l.t.verify, d, nil, 0)
}

func (l *layers) parse(data []byte) (*taskgraph.Config, error) {
	var cfg *taskgraph.Config
	var err error
	d, _ := l.call("taskgraph.Parse", func() { cfg, err = taskgraph.Parse(data) })
	l.add(&l.t.parse, d, nil, 0)
	return cfg, err
}

// add books a call: its time on the timed pass, its bytes on the
// allocation pass.
func (l *layers) add(total *time.Duration, d time.Duration, alloc *uint64, b uint64) {
	if l.memPass {
		if alloc != nil {
			*alloc += b
		}
		return
	}
	*total += d
}

// setShares reports the per-operation layer times, the layer shares of the
// untraced operation time, the unattributed remainder, and the tracing
// overhead.
func setShares(r *report, t layerTotals, tr *tracer) {
	self := selfTimes(tr.spans)
	n := float64(t.ops)
	r.set("core.build_ms", ms(t.build)/n)
	r.set("core.build_alloc_mb", float64(t.buildAlloc)/(1<<20)/float64(max(t.memOps, 1)))
	r.set("core.g_dense", boolf(t.gDense))
	r.set("socp.solve_ms", ms(t.solve)/n)
	r.set("socp.iters", float64(t.iters))
	r.set("socp.hot_exits", float64(t.hotExits))
	r.set("socp.alloc_mb", float64(t.solveAlloc)/(1<<20)/float64(max(t.memOps, 1)))
	r.set("socp.other_ms", ms(t.solve-t.linalgEst)/n)
	r.set("dfmodel.verify_ms", ms(t.verify)/n)
	r.set("taskgraph.parse_ms", ms(t.parse)/n)
	r.set("go.gc_cycles", float64(t.gc)/n)
	r.set("go.alloc_mb", float64(t.alloc)/(1<<20)/n)
	base := float64(t.untraced)
	r.set("share.core_build", ratio(float64(self["core.BuildProblem"]), base))
	r.set("share.socp_solve", ratio(float64(self["socp.SolveContext"]), base))
	r.set("share.linalg_est", ratio(float64(t.linalgEst), base))
	r.set("share.dfmodel_verify", ratio(float64(self["dfmodel.Verify"]), base))
	r.set("share.taskgraph_parse", ratio(float64(self["taskgraph.Parse"]), base))
	attributed := self["core.BuildProblem"] + self["socp.SolveContext"] + self["dfmodel.Verify"] + self["taskgraph.Parse"]
	r.set("share.unattributed", ratio(float64(t.untraced-attributed), base))
	r.set("trace.overhead_ms", ms(t.traced-t.untraced)/n)
	r.samples["layers.ops"] = t.ops
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// zeroServeLayers fills the serve-layer metrics of the batch workloads.
func zeroServeLayers(r *report) {
	for _, d := range layerMetrics {
		if len(d.name) > 6 && d.name[:6] == "serve." {
			r.set(d.name, 0)
		}
	}
}
