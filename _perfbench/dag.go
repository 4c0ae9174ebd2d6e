package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// joint-dag300: cold core.Solve with the default options (verification on)
// on 300-task random DAGs, the smallest random DAGs past the CSR build
// switch, where FactorAuto picks the supernodal backend. The instance pool
// is fixed (dagSeeds, with recorded reference objectives); the workload
// seed sets the order in which each cycle visits it. A run solves whole
// cycles, so every run weighs every instance equally and the solve-time
// median does not depend on which instances a seed happened to draw.

// dagSolveLimit is the per-solve latency limit behind good_frac.
const dagSolveLimit = 3 * time.Second

// dagSolve is one measured cold solve, checked as soon as it finished; it
// keeps only what the traced replay needs.
type dagSolve struct {
	inst  int // index into the pool
	iters int
	mapID int // index into the run's mapping store
	d     time.Duration
	mem   memCost
}

func runDAG(a args, r *report) error {
	ctx := context.Background()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	var pool []*taskgraph.Config
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		pool = pool[:0]
		for _, s := range ref.DAG.Seeds {
			pool = append(pool, dagInstance(s))
		}
		// Seed 0 is outside the pool, so the warm-up leaves nothing behind
		// that a measured solve could reuse.
		if _, err := core.Solve(ctx, dagInstance(0), core.Options{}); err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	r.samples["setup_s"] = len(setups)

	budget := time.Duration(a.seconds * float64(time.Second))
	if a.trace {
		budget /= 2 // half the time goes to the traced replays
	}
	var solves []dagSolve
	store := newMappingStore()
	var times []float64
	good := 0
	var busy time.Duration
	rng := rand.New(rand.NewSource(a.seed))
	for cycle := 0; busy < budget || cycle == 0; cycle++ {
		for _, i := range rng.Perm(len(pool)) {
			var res *core.Result
			var err error
			d, mc := measured(func() { res, err = core.Solve(ctx, pool[i], core.Options{}) })
			if err != nil {
				return fmt.Errorf("dag seed %d: %w", ref.DAG.Seeds[i], err)
			}
			busy += d
			id, ok, why := checkDAG(i, pool[i], res, ref.DAG.Objectives[i], ref.RelTol, store)
			r.check(ok, "dag seed %d: %s", ref.DAG.Seeds[i], why)
			times = append(times, ms(d))
			if ok && d <= dagSolveLimit {
				good++
			}
			s := dagSolve{inst: i, mapID: id, d: d, mem: mc}
			if res != nil {
				s.iters = res.SolverIterations
			}
			solves = append(solves, s)
		}
	}
	r.notes["solves"] = len(solves)
	setLatency(r, times, a.trace)
	r.set("throughput_per_s", float64(len(solves))/busy.Seconds())
	r.samples["throughput_per_s"] = len(solves)
	r.set("good_frac", float64(good)/float64(len(solves)))
	if !a.trace {
		return nil
	}
	return traceDAG(ctx, a, r, pool, solves, store)
}

// checkDAG checks one solve of pool instance inst and returns its mapping's
// index in the store.
func checkDAG(inst int, cfg *taskgraph.Config, res *core.Result, want, relTol float64, store *mappingStore) (int, bool, string) {
	switch {
	case res == nil:
		return -1, false, "missing result"
	case res.Status != core.StatusOptimal:
		return -1, false, fmt.Sprintf("status %v, want optimal", res.Status)
	case !objectiveOK(res.ContinuousObjective, want, relTol):
		return -1, false, fmt.Sprintf("objective %.12g, reference %.12g", res.ContinuousObjective, want)
	}
	return store.verify(fmt.Sprint("dag ", inst), cfg, res.Mapping)
}

// traceDAG replays every measured solve layer by layer — model build, cold
// interior-point solve, SRDF verification of the solve's mapping — and
// profiles the linalg entry points on each pool instance's normal
// equations.
func traceDAG(ctx context.Context, a args, r *report, pool []*taskgraph.Config, solves []dagSolve, store *mappingStore) error {
	if r.mismatches > 0 {
		return fmt.Errorf("outputs failed their checks; no layer replay")
	}
	profiles := make([]linalgProfile, len(pool))
	var mean linalgProfile
	for i, cfg := range pool {
		prob, err := core.BuildProblem(cfg)
		if err != nil {
			return err
		}
		if profiles[i], err = profileLinalg(prob, 3); err != nil {
			return err
		}
		p := profiles[i]
		mean.backend = p.backend
		mean.problemRows, mean.problemCols, mean.nnz = p.problemRows, p.problemCols, p.nnz
		mean.plan += p.plan
		mean.assemble += p.assemble
		mean.analyze += p.analyze
		mean.factor += p.factor
		mean.trisolve += p.trisolve
		mean.kktDim += p.kktDim
		mean.nnzL += p.nnzL
		mean.supernodes += p.supernodes
	}
	n := len(pool)
	mean.plan /= time.Duration(n)
	mean.assemble /= time.Duration(n)
	mean.analyze /= time.Duration(n)
	mean.factor /= time.Duration(n)
	mean.trisolve /= time.Duration(n)
	mean.kktDim /= n
	mean.nnzL /= n
	mean.supernodes /= n
	setLinalg(r, mean)

	tr := newTracer()
	var t layerTotals
	mem := &layers{t: &t, memPass: true}
	if err := replayDAG(ctx, r, mem, pool, solves[0], profiles, store); err != nil {
		return err
	}
	t.memOps = 1
	for k, s := range solves {
		t.ops++
		t.untraced += s.d
		t.gc += s.mem.gcCycles
		t.alloc += s.mem.allocBytes
		t.iters += s.iters
		l := &layers{t: &t, tr: tr, op: k, root: tr.begin("solve", k, -1)}
		if err := replayDAG(ctx, r, l, pool, s, profiles, store); err != nil {
			return err
		}
		t.traced += tr.end(l.root)
	}
	setShares(r, t, tr)
	r.set("socp.iters", float64(t.iters)/float64(t.ops))
	r.set("socp.hot_exits", 0)
	r.set("socp.cache_hits", 0)
	r.set("socp.cache_misses", 0)
	r.set("socp.cache_hit_ratio", 0)
	zeroServeLayers(r)
	return tr.write(fmt.Sprintf("%s/trace-%s-%d.json", a.out, a.workload, a.seed))
}

// replayDAG replays one cold solve through l.
func replayDAG(ctx context.Context, r *report, l *layers, pool []*taskgraph.Config, s dagSolve, profiles []linalgProfile, store *mappingStore) error {
	cfg := pool[s.inst]
	prob, err := l.build(cfg)
	if err != nil {
		return err
	}
	sol, err := l.solve(ctx, prob, socp.Options{})
	if err != nil {
		return err
	}
	if sol.Iterations != s.iters {
		r.invalid = append(r.invalid, fmt.Sprintf("replay of dag instance %d took %d iterations, the solve %d", s.inst, sol.Iterations, s.iters))
	}
	if !l.memPass {
		// A cold solve without a cache plans and analyzes its pattern once.
		p := profiles[s.inst]
		l.t.linalgEst += p.plan + p.analyze + time.Duration(sol.Iterations)*p.perIter()
	}
	l.verify(cfg, store.maps[s.mapID])
	return nil
}
