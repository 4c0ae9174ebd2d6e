package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfmodel"
	"repro/internal/gen"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// sweep-chain100: core.SweepBufferCaps on the 100-task chain over caps
// 8…67 with the default options (verification on, warm chunks of 8) except
// Parallelism 1, each sweep with a fresh caller-owned pattern cache. The
// instance is the same for every seed, so its structural counters (IPM
// iterations, hot exits) repeat exactly and the cache-hit spread is the
// only variation left in the counters.
//
// A sweep is issued as one SweepBufferCaps call per warm chunk, in order,
// all sharing the sweep's cache. With Parallelism 1 that is exactly the
// work of one 60-point call (chunk heads start cold either way), and it
// makes per-chunk wall times observable, which gives the latency metrics
// one sample per chunk instead of one per sweep.

const (
	warmChunk = 8 // core's default Options.WarmChunk
	setupReps = 5
	// sweepPointLimit is the per-point latency limit behind good_frac.
	sweepPointLimit = 250 * time.Millisecond
)

func sweepOptions(pc *socp.PatternCache) core.Options {
	return core.Options{Parallelism: 1, Solver: socp.Options{Cache: pc}}
}

// sweepRun is one measured sweep, checked as soon as it finished. It keeps
// only what the traced replay needs — per-point iteration counts and an
// index into the run's mapping store — so the benchmark's own memory does
// not grow with the number of sweeps a run completes.
type sweepRun struct {
	iters        []int
	mapIDs       []int
	chunkTimes   []time.Duration
	total        time.Duration
	hits, misses int64
	mem          memCost
}

// runOneSweep sweeps cfg over caps chunk by chunk with a fresh cache.
func runOneSweep(ctx context.Context, cfg *taskgraph.Config, caps []int) (sweepRun, []core.TradeoffPoint, error) {
	pc := socp.NewPatternCache()
	opt := sweepOptions(pc)
	var sr sweepRun
	var points []core.TradeoffPoint
	var err error
	sr.total, sr.mem = measured(func() {
		for lo := 0; lo < len(caps) && err == nil; lo += warmChunk {
			hi := min(lo+warmChunk, len(caps))
			start := time.Now()
			var pts []core.TradeoffPoint
			pts, err = core.SweepBufferCaps(ctx, cfg, nil, caps[lo:hi], opt)
			sr.chunkTimes = append(sr.chunkTimes, time.Since(start))
			points = append(points, pts...)
		}
	})
	sr.hits, sr.misses = pc.Stats()
	return sr, points, err
}

func runSweep(a args, r *report) error {
	ctx := context.Background()
	ref, err := loadReference()
	if err != nil {
		return err
	}
	var cfg *taskgraph.Config
	caps := sweepCaps()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		cfg = gen.Chain(gen.ChainOptions{Tasks: sweepTasks})
		if _, err := core.SweepBufferCaps(ctx, cfg, nil, caps[:warmChunk], sweepOptions(socp.NewPatternCache())); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	r.samples["setup_s"] = len(setups)

	// Measure untraced sweeps until the measuring time is used up.
	var runs []sweepRun
	store := newMappingStore()
	var busy time.Duration
	budget := time.Duration(a.seconds * float64(time.Second))
	if a.trace {
		budget /= 2 // half the time goes to the traced replays
	}
	for busy < budget || len(runs) == 0 {
		sr, pts, err := runOneSweep(ctx, cfg, caps)
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
		checkSweep(r, cfg, caps, ref, store, len(runs), pts, &sr)
		runs = append(runs, sr)
		busy += sr.total
	}

	var perPoint, chunkSamples []float64
	good, points := 0, 0
	var hits, misses []int64
	for _, sr := range runs {
		for ci, d := range sr.chunkTimes {
			n := min(warmChunk, len(caps)-ci*warmChunk)
			pt := ms(d) / float64(n)
			chunkSamples = append(chunkSamples, pt)
			if d/time.Duration(n) <= sweepPointLimit {
				good += n
			}
		}
		points += len(sr.iters)
		perPoint = append(perPoint, float64(len(sr.iters))/sr.total.Seconds())
		hits = append(hits, sr.hits)
		misses = append(misses, sr.misses)
	}
	r.notes["sweeps"] = len(runs)
	r.notes["cacheHitsPerSweep"] = hits
	r.notes["cacheMissesPerSweep"] = misses
	setLatency(r, chunkSamples, a.trace)
	r.set("throughput_per_s", median(perPoint))
	r.samples["throughput_per_s"] = len(perPoint)
	r.set("good_frac", float64(max(good-r.failed, 0))/float64(points))
	if !a.trace {
		return nil
	}
	return traceSweeps(ctx, a, r, cfg, caps, runs, store)
}

// setLatency reports the median of the latency samples and, on an untraced
// run, the mean and the highest percentile with at least ten samples beyond
// it. A traced run measures for half the time, too briefly for that tail.
func setLatency(r *report, samples []float64, trace bool) {
	r.set("latency_p50_ms", median(samples))
	r.samples["latency_p50_ms"] = len(samples)
	if trace {
		return
	}
	r.set("latency_mean_ms", mean(samples))
	r.samples["latency_mean_ms"] = len(samples)
	p, ok := tailPercentile(len(samples), 10)
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf("only %d latency samples: no percentile has 10 beyond it", len(samples)))
		p = 50
	}
	r.set("latency_tail_ms", percentile(samples, p))
	r.samples["latency_tail_ms"] = len(samples)
	r.notes["latency_tail_percentile"] = p
}

// checkSweep checks every point of sweep k — optimal status, the recorded
// continuous objective, an SRDF-verified rounded mapping — and records in
// sr the iteration counts and mappings the traced replay needs.
func checkSweep(r *report, cfg *taskgraph.Config, caps []int, ref *reference, store *mappingStore, k int, pts []core.TradeoffPoint, sr *sweepRun) {
	if len(pts) != len(caps) {
		r.check(false, "sweep %d: %d points, want %d", k, len(pts), len(caps))
	}
	for i, p := range pts[:min(len(pts), len(caps))] {
		res := p.Result
		ok, why, id := false, "", -1
		switch {
		case res == nil || p.Cap != caps[i]:
			why = "missing result"
		case res.Status != core.StatusOptimal:
			why = fmt.Sprintf("status %v, want optimal", res.Status)
		case !objectiveOK(res.ContinuousObjective, ref.Sweep.Objectives[i], ref.RelTol):
			why = fmt.Sprintf("objective %.12g, reference %.12g", res.ContinuousObjective, ref.Sweep.Objectives[i])
		default:
			id, ok, why = store.verify(fmt.Sprint("cap ", caps[i]), cappedConfig(cfg, caps[i]), res.Mapping)
		}
		r.check(ok, "sweep %d cap %d: %s", k, caps[i], why)
		iters := 0
		if res != nil {
			iters = res.SolverIterations
		}
		sr.iters = append(sr.iters, iters)
		sr.mapIDs = append(sr.mapIDs, id)
	}
}

// mappingStore runs dfmodel.Verify once per distinct (configuration,
// rounded mapping) pair — the solves are deterministic, so repeats are
// matched against the first — and keeps one copy of each mapping for the
// traced replay.
type mappingStore struct {
	ids  map[string]int
	maps []*taskgraph.Mapping
	ok   []bool
	why  []string
}

func newMappingStore() *mappingStore { return &mappingStore{ids: map[string]int{}} }

// verify checks m against cfg, which cfgKey names, and returns the
// mapping's index in the store (-1 when there is no mapping).
func (s *mappingStore) verify(cfgKey string, cfg *taskgraph.Config, m *taskgraph.Mapping) (id int, ok bool, why string) {
	if m == nil {
		return -1, false, "no mapping"
	}
	mj, err := json.Marshal(m)
	if err != nil {
		return -1, false, "encoding the mapping failed"
	}
	key := cfgKey + "\x00" + string(mj)
	id, seen := s.ids[key]
	if !seen {
		v, err := dfmodel.Verify(cfg, m)
		id = len(s.maps)
		s.ids[key] = id
		s.maps = append(s.maps, m)
		s.ok = append(s.ok, err == nil && v.OK)
		s.why = append(s.why, fmt.Sprintf("mapping failed SRDF verification: %v %v", err, v))
	}
	if !s.ok[id] {
		return id, false, s.why[id]
	}
	return id, true, ""
}

// cappedConfig is cfg with every buffer capped at cap, the configuration
// SweepBufferCaps solves at that point.
func cappedConfig(cfg *taskgraph.Config, cap int) *taskgraph.Config {
	cc := cfg.Clone()
	for _, tg := range cc.Graphs {
		for j := range tg.Buffers {
			tg.Buffers[j].MaxContainers = cap
		}
	}
	return cc
}

// traceSweeps replays each measured sweep layer by layer — model build,
// interior-point solve with the sweep's warm start and a fresh cache, SRDF
// verification of the mapping the sweep produced — in the sweep's order,
// and reports the per-layer breakdown against the untraced sweep times.
func traceSweeps(ctx context.Context, a args, r *report, cfg *taskgraph.Config, caps []int, runs []sweepRun, store *mappingStore) error {
	if r.mismatches > 0 {
		return fmt.Errorf("outputs failed their checks; no layer replay")
	}
	prob, err := core.BuildProblem(cfg)
	if err != nil {
		return err
	}
	pf := newProfiler(10)
	lp, err := pf.of(prob)
	if err != nil {
		return err
	}
	setLinalg(r, lp)
	tr := newTracer()
	var t layerTotals
	mem := &layers{t: &t, memPass: true}
	if err := replaySweep(ctx, r, mem, pf, cfg, caps, runs[0], store); err != nil {
		return err
	}
	t.memOps = len(caps)
	var hits, misses int64
	for k, sr := range runs {
		t.ops += len(sr.iters)
		t.untraced += sr.total
		t.gc += sr.mem.gcCycles
		t.alloc += sr.mem.allocBytes
		hits += sr.hits
		misses += sr.misses
		for _, it := range sr.iters {
			t.iters += it
			if it == 0 {
				t.hotExits++
			}
		}
		l := &layers{t: &t, tr: tr, op: k, root: tr.begin("sweep", k, -1)}
		if err := replaySweep(ctx, r, l, pf, cfg, caps, sr, store); err != nil {
			return err
		}
		t.traced += tr.end(l.root)
	}
	// Times are per point; counters are per sweep, as every sweep runs the
	// same 60 points.
	n := float64(len(runs))
	setShares(r, t, tr)
	r.set("socp.iters", float64(t.iters)/n)
	r.set("socp.hot_exits", float64(t.hotExits)/n)
	r.set("socp.cache_hits", float64(hits)/n)
	r.set("socp.cache_misses", float64(misses)/n)
	r.set("socp.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	zeroServeLayers(r)
	return tr.write(fmt.Sprintf("%s/trace-%s-%d.json", a.out, a.workload, a.seed))
}

// replayPoints replays the points of one sweep of cfg over caps through l,
// chaining warm starts within each warm chunk and sharing one fresh cache
// as SweepBufferCaps does. iters and mappings are the sweep's own results:
// the replay checks it took the same iteration counts and verifies the
// mappings the sweep returned.
func replayPoints(ctx context.Context, r *report, l *layers, pf *profiler, cfg *taskgraph.Config, caps, iters []int, mappings []*taskgraph.Mapping) error {
	pc := socp.NewPatternCache()
	var warm *socp.WarmStart
	var first linalgProfile
	for i, c := range caps {
		if i%warmChunk == 0 {
			warm = nil
		}
		cc := cappedConfig(cfg, c)
		prob, err := l.build(cc)
		if err != nil {
			return err
		}
		sol, err := l.solve(ctx, prob, socp.Options{Cache: pc, WarmStart: warm})
		if err != nil {
			return err
		}
		warm = sol.Warm()
		if sol.Iterations != iters[i] {
			r.invalid = append(r.invalid, fmt.Sprintf("replay of cap %d took %d iterations, the sweep %d", c, sol.Iterations, iters[i]))
		}
		if !l.memPass {
			p, err := pf.of(prob)
			if err != nil {
				return err
			}
			if i == 0 {
				first = p
			}
			l.t.linalgEst += time.Duration(sol.Iterations) * p.perIter()
		}
		l.verify(cc, mappings[i])
	}
	if !l.memPass {
		// Every cache miss plans the normal equations; the first also
		// analyzes them, later ones share the symbolic analysis.
		_, misses := pc.Stats()
		l.t.linalgEst += time.Duration(misses)*first.plan + first.analyze
	}
	return nil
}

// replaySweep replays one measured sweep.
func replaySweep(ctx context.Context, r *report, l *layers, pf *profiler, cfg *taskgraph.Config, caps []int, sr sweepRun, store *mappingStore) error {
	maps := make([]*taskgraph.Mapping, len(sr.mapIDs))
	for i, id := range sr.mapIDs {
		maps[i] = store.maps[id]
	}
	return replayPoints(ctx, r, l, pf, cfg, caps, sr.iters, maps)
}
