package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/socp"
	"repro/internal/taskgraph"
)

// serve-mix: open-loop Poisson arrivals over loopback HTTP into the
// unchanged cmd/bbserve binary with its default settings (see daemon.go).
// A traced run steps through a fixed ladder of arrival rates, lowest
// first, with the server idle between rungs; an untraced run, whose metrics
// come from the nominal rung alone, sends only that rung. Every request's
// latency is timed from its due time, so a stalled server also delays the
// requests behind it. The mix is
//
//	70% /v1/solve on four hot topologies (T1, T2, chain-20, chain-100 in
//	    equal shares), each request perturbing only the WCETs and the
//	    period;
//	20% /v1/solve on RandomDAGs of 40–80 tasks with fresh seeds, which
//	    the server has never seen;
//	10% /v1/sweep of chain-20 over 16 caps;
//
// all with verification on. Every 200 response is checked against an
// in-process core.Solve (or SweepBufferCaps) of the same configuration.
//
// The generator holds one connection per in-flight request: CPU-bound load
// stays within nproc (the server's workers), and the server's admission
// queue, not the client, decides what waits and what is shed.

// The ladder, the nominal rate, and the latency limit are fixed constants
// of the benchmark; they are never derived from a run. They rest on one
// figure measured once, serveCapacity: the closed-loop saturation
// throughput of this mix (two clients, each sending its next request when
// the last one returns) against bbserve on a 2-vCPU Xeon host, which read
// 64.9–71.4 req/s over four runs. The ladder offers a quarter, a half,
// three quarters, and all of it. The nominal rung is the lowest: from the
// second rung up, the default admission queue (2 per worker) sheds
// requests in Poisson bursts. serve.max_rps is a per-layer figure, as it
// swung between the first and the second rung from run to run.
const serveCapacity = 68.0 // req/s

var serveLadder = []float64{serveCapacity / 4, serveCapacity / 2, serveCapacity * 3 / 4, serveCapacity}

const (
	serveNominal = serveCapacity / 4 // req/s; the rung behind the latency metrics
	// serveLimit is the p95 latency limit: twice the measured p95 worker
	// time of the slowest request class (never-seen DAGs, about 86 ms),
	// rounded up to 25 ms, so a request may wait behind about one slow
	// request and still meet it.
	serveLimit = 175 * time.Millisecond
	// serveNominalMin is the smallest nominal-rung request count: p95 of
	// 210 samples has 10 samples beyond it.
	serveNominalMin = 210
	// serveDeadline is each request's deadline_ms; far above the limit, so
	// a 504 means a stall, not a slow request.
	serveDeadline = 10 * time.Second
	// clientTimeout bounds one request on the client side.
	clientTimeout = 20 * time.Second
	// genLagLimit is the p99 send lateness beyond which the generator is
	// considered to have fallen behind its schedule, invalidating the run.
	genLagLimit = 20 * time.Millisecond
	// hotVariants is the number of perturbed parameter sets per hot
	// topology and of the chain-20 sweep; repeats share one reference.
	hotVariants = 8
)

// sweepCapsServe are the caps of the chain-20 /v1/sweep requests.
var sweepCapsServe = func() []int {
	caps := make([]int, 16)
	for i := range caps {
		caps[i] = i + 8
	}
	return caps
}()

// Request classes.
const (
	classHot = iota
	classNew
	classSweep
)

var classNames = []string{"hot", "new", "sweep"}

// request is one scheduled request.
type request struct {
	rung    int
	due     time.Duration // offset from the rung's start
	class   int
	key     string // reference key: equal keys share one configuration
	cfg     *taskgraph.Config
	cfgJSON []byte
	body    []byte
	path    string
}

// outcome is what the client saw for one request.
type outcome struct {
	status   int
	latency  time.Duration // from due time to the end of the response body
	lag      time.Duration // how late the request was sent
	elapsed  time.Duration // the server's elapsedMs
	solve    *serve.SolveResponse
	sweep    *serve.SweepResponse
	errCode  string // the error body's code on a non-200 response
	transErr error
}

// schedule is a seed-determined set of requests, in send order.
type schedule struct {
	reqs  []request
	rungs [][]int // request indices per rung
}

// rungDurations splits the measuring time. The end-to-end metrics come from
// the nominal rung alone, so an untraced run spends all of it there; a
// traced run, which also reports serve.max_rps, climbs the whole ladder,
// with three quarters of the time for the nominal rung and a quarter shared
// by the others. The nominal rung always has at least serveNominalMin
// requests.
func rungDurations(seconds float64, ladder bool) []float64 {
	d := make([]float64, len(serveLadder))
	nominalShare := 1.0
	if ladder {
		nominalShare = 0.75
	}
	for i, rate := range serveLadder {
		switch {
		case rate == serveNominal:
			d[i] = math.Max(seconds*nominalShare, serveNominalMin/rate)
		case ladder:
			d[i] = seconds * (1 - nominalShare) / float64(len(serveLadder)-1)
		}
	}
	return d
}

// makeSchedule builds the request set and arrival schedule from the seed;
// ladder selects whether the rungs above the nominal one get requests.
func makeSchedule(seed int64, seconds float64, ladder bool) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	hotBase := []*taskgraph.Config{
		gen.PaperT1(4), gen.PaperT2(4),
		gen.Chain(gen.ChainOptions{Tasks: 20}), gen.Chain(gen.ChainOptions{Tasks: 100}),
	}
	perturb := func(base *taskgraph.Config) *taskgraph.Config {
		c := base.Clone()
		for _, tg := range c.Graphs {
			// Shorter WCETs and a longer period keep a feasible base
			// feasible; the constraint pattern is unchanged.
			for j := range tg.Tasks {
				tg.Tasks[j].WCET *= 0.9 + 0.1*rng.Float64()
			}
			tg.Period *= 1 + 0.05*rng.Float64()
		}
		return c
	}
	hot := make([][]*taskgraph.Config, len(hotBase))
	for t, b := range hotBase {
		for v := 0; v < hotVariants; v++ {
			hot[t] = append(hot[t], perturb(b))
		}
	}
	var sweeps []*taskgraph.Config
	for v := 0; v < hotVariants; v++ {
		sweeps = append(sweeps, perturb(hotBase[2]))
	}

	s := &schedule{}
	for ri, dur := range rungDurations(seconds, ladder) {
		rate := serveLadder[ri]
		n := int(math.Round(rate * dur))
		var at time.Duration
		var idx []int
		var block, sizes []int
		for i := 0; i < n; i++ {
			at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			req := request{rung: ri, due: at}
			if len(block) == 0 {
				block = append(block, mixBlock...)
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			class, t := mixSlot(block[0])
			block = block[1:]
			v := rng.Intn(hotVariants)
			switch class {
			case classHot:
				req.class, req.key, req.cfg = classHot, fmt.Sprintf("hot/%d/%d", t, v), hot[t][v]
			case classNew:
				if len(sizes) == 0 {
					sizes = append(sizes, dagSizes...)
					rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
				}
				tasks, dseed := sizes[0], rng.Int63()
				sizes = sizes[1:]
				req.class, req.key = classNew, fmt.Sprintf("new/%d/%d", tasks, dseed)
				req.cfg = gen.RandomDAG(gen.DAGOptions{Seed: dseed, Tasks: tasks})
			default:
				req.class, req.key, req.cfg = classSweep, fmt.Sprintf("sweep/%d", v), sweeps[v]
			}
			if err := req.encode(); err != nil {
				return nil, err
			}
			idx = append(idx, len(s.reqs))
			s.reqs = append(s.reqs, req)
		}
		s.rungs = append(s.rungs, idx)
	}
	return s, nil
}

// mixBlock is the request mix, one block of 40 requests: 28 hot (seven
// each of T1, T2, chain-20, chain-100), 8 never-seen DAGs, 4 sweeps. Each
// block is shuffled by the seed, so every run carries exactly the stated
// mix and only the order and arrival times vary.
var mixBlock = []int{
	0, 0, 0, 0, 0, 0, 0,
	1, 1, 1, 1, 1, 1, 1,
	2, 2, 2, 2, 2, 2, 2,
	3, 3, 3, 3, 3, 3, 3,
	-1, -1, -1, -1, -1, -1, -1, -1,
	-2, -2, -2, -2,
}

// dagSizes are the task counts of the never-seen DAGs, dealt from a
// shuffled deck like mixBlock, so that every run solves the same spread of
// sizes; only the seeds are fresh.
var dagSizes = []int{40, 45, 50, 55, 60, 65, 70, 75, 80}

// mixSlot maps a mixBlock entry to its class and hot topology.
func mixSlot(e int) (class, topology int) {
	switch e {
	case -1:
		return classNew, 0
	case -2:
		return classSweep, 0
	}
	return classHot, e
}

// encode renders the request's wire body.
func (q *request) encode() error {
	var err error
	if q.cfgJSON, err = json.Marshal(q.cfg); err != nil {
		return err
	}
	deadline := serveDeadline.Milliseconds()
	if q.class == classSweep {
		q.path = "/v1/sweep"
		q.body, err = json.Marshal(serve.SweepRequest{Config: q.cfgJSON, Caps: sweepCapsServe, DeadlineMS: deadline})
	} else {
		q.path = "/v1/solve"
		q.body, err = json.Marshal(serve.SolveRequest{Config: q.cfgJSON, DeadlineMS: deadline})
	}
	return err
}

// send posts one request and records what came back.
func send(client *http.Client, url string, q *request, dueAt time.Time) outcome {
	var o outcome
	o.lag = time.Since(dueAt)
	resp, err := client.Post(url+q.path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		o.transErr = err
		o.latency = time.Since(dueAt)
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(dueAt)
	o.status = resp.StatusCode
	if err != nil {
		o.transErr = err
		return o
	}
	if o.status != http.StatusOK {
		var e serve.ErrorResponse
		if json.Unmarshal(body, &e) == nil {
			o.errCode = e.Error.Code
		}
		return o
	}
	if q.class == classSweep {
		o.sweep = &serve.SweepResponse{}
		err = json.Unmarshal(body, o.sweep)
		o.elapsed = fromMS(o.sweep.ElapsedMS)
	} else {
		o.solve = &serve.SolveResponse{}
		err = json.Unmarshal(body, o.solve)
		o.elapsed = fromMS(o.solve.ElapsedMS)
	}
	if err != nil {
		o.transErr = fmt.Errorf("decoding the response: %w", err)
	}
	return o
}

// runRung sends one rung's requests on schedule and waits for all of them.
func runRung(client *http.Client, url string, s *schedule, rung int, out []outcome) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, i := range s.rungs[rung] {
		dueAt := start.Add(s.reqs[i].due)
		if d := time.Until(dueAt); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = send(client, url, &s.reqs[i], dueAt)
		}(i)
	}
	wg.Wait()
}

// rungStats summarizes one rung.
type rungStats struct {
	rate            float64
	n               int
	p50, p95        float64 // ms; requests that missed (refused, failed) count as +Inf
	mean            float64 // ms, over the requests served; misses count in good
	drain           float64 // ms from the last due time to the last completion
	good            int     // 200s within the limit that passed their checks
	served          int     // 200s that passed their checks
	workerSec       float64 // the server's worker time (elapsedMs) for them
	shed, deadlines int
	pass            bool
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, DisableCompression: true},
	}
}

func runServe(a args, r *report) error {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var s *schedule
	var d *daemon
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping the server: %w", err)
			}
		}
		start := time.Now()
		var err error
		if s, err = makeSchedule(a.seed, a.seconds, a.trace); err != nil {
			return err
		}
		if d, err = startDaemon(client, a.out); err != nil {
			return err
		}
		if err := warmUp(client, d.url); err != nil {
			d.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", median(setups))
	r.samples["setup_s"] = len(setups)

	before, err := d.vars(client)
	if err != nil {
		d.stop()
		return err
	}
	out := make([]outcome, len(s.reqs))
	for rung := range serveLadder {
		runRung(client, d.url, s, rung, out)
	}
	after, err := d.vars(client)
	peak, perr := d.peakRSSMB()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	r.set("mem.peak_mb", peak)
	r.notes["server"] = map[string]any{"workers": after.Queue.Workers, "queueDepth": after.Queue.Depth}

	good := checkServe(r, s, out)
	stats := summarize(s, out, good)
	nominal := 0
	maxRate, climbing := 0.0, true
	var ladder []map[string]any
	for i, st := range stats {
		if st.rate == serveNominal {
			nominal = i
		}
		// The ladder is climbed until a rung fails; a lucky higher rung
		// after a failed one does not count.
		climbing = climbing && st.pass
		if climbing {
			maxRate = st.rate
		}
		ladder = append(ladder, map[string]any{
			"rate": st.rate, "n": st.n, "p50_ms": finite(st.p50), "p95_ms": finite(st.p95),
			"drain_ms": st.drain, "good": st.good, "shed": st.shed, "deadline504": st.deadlines,
			"pass": st.pass,
		})
	}
	r.set("serve.max_rps", maxRate)
	nom := stats[nominal]
	r.notes["ladder"] = ladder
	r.notes["nominal_rps"], r.notes["limit_ms"] = serveNominal, ms(serveLimit)
	r.set("latency_mean_ms", nom.mean)
	r.set("latency_p50_ms", finite(nom.p50))
	r.set("latency_tail_ms", finite(nom.p95))
	r.samples["latency_mean_ms"] = nom.served
	r.samples["latency_p50_ms"], r.samples["latency_tail_ms"] = nom.n, nom.n
	r.notes["latency_tail_percentile"] = 95
	if beyond(nom.n, 95) < 10 {
		r.invalid = append(r.invalid, fmt.Sprintf("nominal rung has %d samples, fewer than 10 beyond p95", nom.n))
	}
	r.set("good_frac", float64(nom.good)/float64(nom.n))
	byClass := map[string]float64{}
	for c, name := range classNames {
		var lat []float64
		for _, i := range s.rungs[nominal] {
			if good[i] && s.reqs[i].class == c {
				lat = append(lat, ms(out[i].latency))
			}
		}
		byClass[name] = percentile(lat, 50)
	}
	r.notes["nominal_p50_ms_by_class"] = byClass
	// The program's own rate: requests served per second of server worker
	// time at the nominal rung. Unlike the rung's delivered rate, which is
	// the offered rate whenever the server keeps up, it moves when a
	// request takes the server more or less work.
	r.set("throughput_per_s", ratio(float64(nom.served), nom.workerSec))
	r.samples["throughput_per_s"] = nom.served

	var lags []float64
	for _, idx := range s.rungs {
		for _, i := range idx {
			lags = append(lags, ms(out[i].lag))
		}
	}
	if p99 := percentile(lags, 99); p99 > ms(genLagLimit) {
		r.invalid = append(r.invalid, fmt.Sprintf("generator fell behind its schedule: p99 send lag %.1f ms", p99))
	}
	if !a.trace {
		return nil
	}
	setServeLayers(r, s, out, lags, before, after)
	return traceServe(a, r, s, out, nominal)
}

// finite caps an infinite latency (a rung where more than the percentile's
// share missed) at the client timeout, so the result stays JSON.
func finite(v float64) float64 { return math.Min(v, ms(clientTimeout)) }

// warmUp sends one request of each hot topology and one sweep, so code and
// caches are warm before timing, and checks each succeeds.
func warmUp(client *http.Client, url string) error {
	reqs := []request{
		{class: classHot, cfg: gen.PaperT1(4)}, {class: classHot, cfg: gen.PaperT2(4)},
		{class: classHot, cfg: gen.Chain(gen.ChainOptions{Tasks: 20})},
		{class: classHot, cfg: gen.Chain(gen.ChainOptions{Tasks: 100})},
		{class: classSweep, cfg: gen.Chain(gen.ChainOptions{Tasks: 20})},
	}
	for i := range reqs {
		if err := reqs[i].encode(); err != nil {
			return err
		}
		if o := send(client, url, &reqs[i], time.Now()); o.status != http.StatusOK || o.transErr != nil {
			return fmt.Errorf("warm-up request %s: HTTP %d %v", reqs[i].path, o.status, o.transErr)
		}
	}
	return nil
}

// checkServe checks every request and returns which ones count as good
// (HTTP 200 with a correct body). At or below the nominal rate every
// request must succeed; above it, 429 (shed by admission control) and 504
// are the designed overload outcomes and only miss the latency limit. A
// solver_error is a failed operation, and also a wrong output unless the
// in-process solve of the same configuration fails too.
func checkServe(r *report, s *schedule, out []outcome) []bool {
	good := make([]bool, len(out))
	refs := map[string]any{}
	for i := range s.reqs {
		q, o := &s.reqs[i], &out[i]
		rate := serveLadder[q.rung]
		switch {
		case o.transErr == nil && o.status == http.StatusOK:
			ok, why := checkResponse(q, o, refs)
			r.check(ok, "request %d (%s): %s", i, q.key, why)
			good[i] = ok
		case rate > serveNominal && o.transErr == nil && (o.status == http.StatusTooManyRequests || o.status == http.StatusGatewayTimeout):
			r.attempted++
		case o.errCode == serve.CodeSolverError:
			if _, err := inProcess(q, refs); err != nil {
				r.fail("request %d (%s) at %.0f req/s: %s; in-process: %v", i, q.key, rate, o.errCode, err)
			} else {
				r.check(false, "request %d (%s) at %.0f req/s: %s, but the in-process solve succeeds", i, q.key, rate, o.errCode)
			}
		default:
			r.fail("request %d (%s) at %.0f req/s: HTTP %d %s %v", i, q.key, rate, o.status, o.errCode, o.transErr)
		}
	}
	return good
}

// inProcess solves a request's configuration in-process with the server's
// options, once per key. A solve that errors or does not end optimal is an
// error.
func inProcess(q *request, refs map[string]any) (any, error) {
	if ref, ok := refs[q.key]; ok {
		if err, bad := ref.(error); bad {
			return nil, err
		}
		return ref, nil
	}
	ctx := context.Background()
	opt := core.Options{Parallelism: 1}
	var ref any
	var err error
	if q.class == classSweep {
		var pts []core.TradeoffPoint
		if pts, err = core.SweepBufferCaps(ctx, q.cfg, nil, sweepCapsServe, opt); err == nil {
			ref = pts
		}
	} else {
		var res *core.Result
		if res, err = core.Solve(ctx, q.cfg, opt); err == nil && res.Status != core.StatusOptimal {
			err = fmt.Errorf("status %v", res.Status)
		}
		ref = res
	}
	if err != nil {
		refs[q.key] = err
		return nil, err
	}
	refs[q.key] = ref
	return ref, nil
}

// checkResponse compares a 200 body with the in-process reference.
func checkResponse(q *request, o *outcome, refs map[string]any) (bool, string) {
	ref, err := inProcess(q, refs)
	if err != nil {
		return false, fmt.Sprintf("the server answered 200, the in-process solve failed: %v", err)
	}
	if q.class == classSweep {
		pts := ref.([]core.TradeoffPoint)
		if o.sweep == nil || len(o.sweep.Points) != len(pts) {
			return false, "sweep response has the wrong number of points"
		}
		for i, p := range pts {
			got := o.sweep.Points[i]
			if ok, why := sameResult(got.Status, got.Mapping, got.ContinuousObjective, p.Result); !ok {
				return false, fmt.Sprintf("cap %d: %s", got.Cap, why)
			}
		}
		return true, ""
	}
	return sameResult(o.solve.Status, o.solve.Mapping, o.solve.ContinuousObjective, ref.(*core.Result))
}

// relTolServe bounds the objective difference between the server's solve
// and the in-process one; both run the same deterministic code.
const relTolServe = 1e-9

func sameResult(status string, m *taskgraph.Mapping, obj float64, want *core.Result) (bool, string) {
	switch {
	case status != want.Status.String():
		return false, fmt.Sprintf("status %s, in-process %s", status, want.Status)
	case want.Status != core.StatusOptimal:
		return false, fmt.Sprintf("status %s, want optimal", status)
	case !objectiveOK(obj, want.ContinuousObjective, relTolServe):
		return false, fmt.Sprintf("objective %.12g, in-process %.12g", obj, want.ContinuousObjective)
	case !sameMapping(m, want.Mapping):
		return false, "mapping differs from the in-process solve"
	}
	return true, ""
}

func sameMapping(a, b *taskgraph.Mapping) bool {
	if a == nil || b == nil || len(a.Budgets) != len(b.Budgets) || len(a.Capacities) != len(b.Capacities) {
		return false
	}
	// Both sides run the same deterministic code, so the rounded budgets
	// must agree exactly.
	for k, v := range b.Budgets {
		if got, ok := a.Budgets[k]; !ok || got != v {
			return false
		}
	}
	for k, v := range b.Capacities {
		if a.Capacities[k] != v {
			return false
		}
	}
	return true
}

// summarize computes each rung's latency percentiles, drain time, and
// verdict. A rung passes when its p95 meets the limit and its backlog did
// not grow: the last request completes within the limit of its due time
// plus the drain, measured as last completion minus last due time.
func summarize(s *schedule, out []outcome, good []bool) []rungStats {
	var stats []rungStats
	for ri, rate := range serveLadder {
		idx := s.rungs[ri]
		if len(idx) == 0 {
			continue // a rung an untraced run skips
		}
		st := rungStats{rate: rate, n: len(idx)}
		var served []float64
		var lat []float64
		var lastDue, lastDone time.Duration
		for _, i := range idx {
			o := out[i]
			l := ms(o.latency)
			if !good[i] {
				l = math.Inf(1)
			} else {
				st.served++
				st.workerSec += o.elapsed.Seconds()
				served = append(served, l)
				if o.latency <= serveLimit {
					st.good++
				}
			}
			lat = append(lat, l)
			switch o.status {
			case http.StatusTooManyRequests:
				st.shed++
			case http.StatusGatewayTimeout:
				st.deadlines++
			}
			due := s.reqs[i].due
			lastDue = max(lastDue, due)
			lastDone = max(lastDone, due+o.latency)
		}
		st.p50, st.p95 = percentile(lat, 50), percentile(lat, 95)
		st.mean = mean(served)
		st.drain = ms(lastDone - lastDue)
		st.pass = st.p95 <= ms(serveLimit) && st.drain <= ms(serveLimit)
		stats = append(stats, st)
	}
	return stats
}

// setServeLayers reports the serve layer as the client and /debug/vars see
// it.
func setServeLayers(r *report, s *schedule, out []outcome, lags []float64, before, after debugVars) {
	var queue []float64
	worker := make([][]float64, len(classNames))
	shed, deadlines := 0, 0
	for i, o := range out {
		q := &s.reqs[i]
		switch o.status {
		case http.StatusTooManyRequests:
			shed++
		case http.StatusGatewayTimeout:
			deadlines++
		case http.StatusOK:
			worker[q.class] = append(worker[q.class], ms(o.elapsed))
			if serveLadder[q.rung] == serveNominal {
				queue = append(queue, queueWait(o.latency, o.elapsed))
			}
		}
	}
	r.set("serve.queue_ms_p50", percentile(queue, 50))
	r.set("serve.queue_ms_p95", percentile(queue, 95))
	r.samples["serve.queue_ms"] = len(queue)
	for c, name := range classNames {
		r.set("serve.worker_ms_p50."+name, percentile(worker[c], 50))
		r.set("serve.worker_ms_p95."+name, percentile(worker[c], 95))
		r.samples["serve.worker_ms."+name] = len(worker[c])
	}
	n := float64(len(out))
	r.set("serve.shed_frac", float64(shed)/n)
	r.set("serve.deadline_frac", float64(deadlines)/n)
	hits, misses := after.Cache.Hits-before.Cache.Hits, after.Cache.Misses-before.Cache.Misses
	r.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("socp.cache_hits", float64(hits))
	r.set("socp.cache_misses", float64(misses))
	r.set("socp.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	r.set("serve.patterns", float64(after.Breaker.Patterns))
	r.set("serve.gen_lag_ms", percentile(lags, 95))
	r.samples["serve.gen_lag_ms"] = len(lags)
}

// queueWait is the part of a request's latency the server did not spend
// solving it: admission queue, parsing, HTTP, and generator lag.
func queueWait(latency, elapsed time.Duration) float64 { return ms(latency - elapsed) }

// traceServe replays the nominal rung's successful requests, in schedule
// order, through the layers the server calls — taskgraph.Parse, then the
// model build, the interior-point solve with a shared cache, and SRDF
// verification of the returned mapping (per point for sweeps) — and
// reports their shares of the server's own worker time.
func traceServe(a args, r *report, s *schedule, out []outcome, nominal int) error {
	ctx := context.Background()
	pf := newProfiler(10)
	prob, err := core.BuildProblem(gen.Chain(gen.ChainOptions{Tasks: 100}))
	if err != nil {
		return err
	}
	lp, err := pf.of(prob)
	if err != nil {
		return err
	}
	setLinalg(r, lp)
	r.notes["linalg_instance"] = "chain-100 (the largest hot topology)"

	var t layerTotals
	tr := newTracer()
	var replay []int
	for _, i := range s.rungs[nominal] {
		if out[i].status == http.StatusOK {
			replay = append(replay, i)
		}
	}
	const memReqs = 10
	mem := &layers{t: &t, memPass: true}
	pcMem := socp.NewPatternCache()
	for _, i := range replay[:min(memReqs, len(replay))] {
		if err := replayRequest(ctx, r, mem, pf, pcMem, &s.reqs[i], &out[i]); err != nil {
			return err
		}
		t.memOps++
	}
	// The server's Go runtime is not observable from outside, so the
	// go.* counters are the runtime's during the timed replay of the same
	// requests in this process.
	pc := socp.NewPatternCache()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	for k, i := range replay {
		o := &out[i]
		t.ops++
		t.untraced += o.elapsed
		if o.solve != nil {
			t.iters += o.solve.Iterations
			if o.solve.Iterations == 0 {
				t.hotExits++
			}
		} else {
			for _, p := range o.sweep.Points {
				t.iters += p.Iterations
				if p.Iterations == 0 {
					t.hotExits++
				}
			}
		}
		l := &layers{t: &t, tr: tr, op: k, root: tr.begin("request", k, -1)}
		if err := replayRequest(ctx, r, l, pf, pc, &s.reqs[i], o); err != nil {
			return err
		}
		t.traced += tr.end(l.root)
	}
	runtime.ReadMemStats(&msAfter)
	t.gc = msAfter.NumGC - msBefore.NumGC
	t.alloc = msAfter.TotalAlloc - msBefore.TotalAlloc
	hits, misses := r.metrics["socp.cache_hits"], r.metrics["socp.cache_misses"]
	setShares(r, t, tr)
	// The cache counters are the server's, set by setServeLayers.
	r.set("socp.cache_hits", hits)
	r.set("socp.cache_misses", misses)
	r.set("socp.iters", float64(t.iters)/float64(t.ops))
	r.set("socp.hot_exits", float64(t.hotExits)/float64(t.ops))
	r.notes["untraced_base"] = "server worker time (elapsedMs); parsing runs before the worker"
	return tr.write(fmt.Sprintf("%s/trace-%s-%d.json", a.out, a.workload, a.seed))
}

// replayRequest replays one request through l.
func replayRequest(ctx context.Context, r *report, l *layers, pf *profiler, pc *socp.PatternCache, q *request, o *outcome) error {
	cfg, err := l.parse(q.cfgJSON)
	if err != nil {
		return err
	}
	if o.sweep != nil {
		iters := make([]int, len(o.sweep.Points))
		maps := make([]*taskgraph.Mapping, len(o.sweep.Points))
		for i, p := range o.sweep.Points {
			iters[i], maps[i] = p.Iterations, p.Mapping
		}
		return replayPoints(ctx, r, l, pf, cfg, sweepCapsServe, iters, maps)
	}
	prob, err := l.build(cfg)
	if err != nil {
		return err
	}
	sol, err := l.solve(ctx, prob, socp.Options{Cache: pc})
	if err != nil {
		return err
	}
	if sol.Iterations != o.solve.Iterations {
		r.invalid = append(r.invalid, fmt.Sprintf("replay of %s took %d iterations, the server %d", q.key, sol.Iterations, o.solve.Iterations))
	}
	if !l.memPass {
		p, err := pf.of(prob)
		if err != nil {
			return err
		}
		l.t.linalgEst += time.Duration(sol.Iterations) * p.perIter()
	}
	l.verify(cfg, o.solve.Mapping)
	return nil
}
