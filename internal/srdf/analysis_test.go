package srdf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randLiveGraph generates a random strongly-connected-ish live SRDF graph:
// a ring backbone (guaranteeing liveness and a cycle) plus random chords.
func randLiveGraph(rng *rand.Rand, n int) *Graph {
	g := NewGraph()
	ids := make([]ActorID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddActor("", 0.1+rng.Float64()*5)
	}
	for i := 0; i < n; i++ {
		g.AddEdge("", ids[i], ids[(i+1)%n], 1+rng.Intn(3))
	}
	extra := rng.Intn(2 * n)
	for k := 0; k < extra; k++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		g.AddEdge("", ids[from], ids[to], 1+rng.Intn(4))
	}
	return g
}

// bruteForceMCM enumerates all simple cycles (small graphs only) and returns
// the maximum of Σρ/Σδ.
func bruteForceMCM(g *Graph) float64 {
	n := g.NumActors()
	best := 0.0
	var dfs func(start, cur int, visited []bool, dur float64, tok int)
	dfs = func(start, cur int, visited []bool, dur float64, tok int) {
		for _, eid := range g.OutEdges(ActorID(cur)) {
			e := g.Edge(eid)
			to := int(e.To)
			nd := dur + g.Actor(ActorID(cur)).Duration
			nt := tok + e.Tokens
			if to == start {
				if nt > 0 && nd/float64(nt) > best {
					best = nd / float64(nt)
				}
				continue
			}
			if to > start && !visited[to] { // canonical: cycle's smallest node is start
				visited[to] = true
				dfs(start, to, visited, nd, nt)
				visited[to] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		visited := make([]bool, n)
		visited[s] = true
		dfs(s, s, visited, 0, 0)
	}
	return best
}

// TestMCMAgainstBruteForce compares the binary search against explicit cycle
// enumeration on small random graphs.
func TestMCMAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 60; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		want := bruteForceMCM(g)
		got, err := g.MinPeriod()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !almostEqual(got, want, 1e-8) {
			t.Fatalf("trial %d: MinPeriod = %v, brute force = %v", trial, got, want)
		}
	}
}

// minPeriodBisect is the reference maximum cycle mean: Lawler's binary
// search over the full bracket [0, Σρ] with strict Bellman-Ford feasibility
// tests, independent of Howard's policy iteration.
func minPeriodBisect(g *Graph) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	if !g.DeadlockFree() {
		return 0, ErrDeadlock
	}
	var hi float64
	for _, a := range g.actors {
		hi += a.Duration
	}
	if hi == 0 || g.feasibleExact(0) {
		return 0, nil
	}
	lo := 0.0
	for !g.feasibleExact(hi) {
		hi *= 2
	}
	for iter := 0; iter < 100 && hi-lo > 1e-12*hi; iter++ {
		mid := (lo + hi) / 2
		if g.feasibleExact(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// relClose reports whether a and b agree to the relative tolerance tol.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkCertified fails the test unless MinPeriod's result passes the strict
// feasibility test and is within a relative 1e-12 of want.
func checkCertified(t *testing.T, name string, g *Graph, want float64) {
	t.Helper()
	got, err := g.MinPeriod()
	if err != nil {
		t.Fatalf("%s: MinPeriod: %v", name, err)
	}
	if !g.feasibleExact(got) {
		t.Fatalf("%s: MinPeriod %v fails the feasibility test", name, got)
	}
	if !relClose(got, want, 1e-12) {
		t.Fatalf("%s: MinPeriod %v, oracle %v (rel diff %.3g)",
			name, got, want, math.Abs(got-want)/want)
	}
}

// checkAgainstBisect is checkCertified against the bisection oracle.
func checkAgainstBisect(t *testing.T, name string, g *Graph) {
	t.Helper()
	want, err := minPeriodBisect(g)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	checkCertified(t, name, g, want)
}

// TestHowardAgreesWithLawler cross-checks MinPeriod, and Howard's iteration
// on its own, against the bisection oracle on larger random graphs.
func TestHowardAgreesWithLawler(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 60; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(20))
		checkAgainstBisect(t, fmt.Sprintf("trial %d", trial), g)
		lawler, err := minPeriodBisect(g)
		if err != nil {
			t.Fatalf("trial %d lawler: %v", trial, err)
		}
		howard, err := g.MinPeriodHoward()
		if err != nil {
			t.Fatalf("trial %d howard: %v", trial, err)
		}
		if !almostEqual(lawler, howard, 1e-7) {
			t.Fatalf("trial %d: lawler %v != howard %v", trial, lawler, howard)
		}
	}
}

// randTailGraph is randLiveGraph with acyclic chains feeding into the ring
// and hanging off it, so Howard's iteration must strip actors that cannot
// reach a cycle.
func randTailGraph(rng *rand.Rand, n, tail int) *Graph {
	g := randLiveGraph(rng, n)
	prev := ActorID(rng.Intn(n))
	for i := 0; i < tail; i++ { // ring → tail
		a := g.AddActor("", rng.Float64()*50)
		g.AddEdge("", prev, a, rng.Intn(2))
		prev = a
	}
	next := ActorID(rng.Intn(n))
	for i := 0; i < tail; i++ { // tail → ring
		a := g.AddActor("", rng.Float64()*50)
		g.AddEdge("", a, next, rng.Intn(2))
		next = a
	}
	return g
}

// TestMinPeriodCertified: every period MinPeriod returns passes the strict
// feasibility test and is within 1e-12 relative of the MCM, on
// ring-with-chords graphs and on graphs with long acyclic tails. The tail
// graphs are checked against exact cycle enumeration (their cycles all lie
// in the small ring): the bisection oracle's feasibility test tolerates a
// slack proportional to the start times, which the tails make large enough
// to move its answer by about 1e-12 relative.
func TestMinPeriodCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 100; trial++ {
		checkAgainstBisect(t, fmt.Sprintf("ring trial %d", trial), randLiveGraph(rng, 2+rng.Intn(60)))
	}
	for trial := 0; trial < 40; trial++ {
		g := randTailGraph(rng, 2+rng.Intn(20), rng.Intn(200))
		checkCertified(t, fmt.Sprintf("tail trial %d", trial), g, bruteForceMCM(g))
	}
}

// TestRefineMinPeriodFallback drives the bisection fallback directly: from
// a lower bound that fails the feasibility certificate, refineMinPeriod must
// still land on the oracle's period.
func TestRefineMinPeriodFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for trial := 0; trial < 40; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(30))
		want, err := minPeriodBisect(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, lo := range []float64{0, 0.5 * want, want * (1 - 1e-6)} {
			if g.feasibleExact(lo) {
				t.Fatalf("trial %d: λ=%v below the MCM %v passes the certificate", trial, lo, want)
			}
			got, err := g.refineMinPeriod(lo)
			if err != nil {
				t.Fatalf("trial %d λ=%v: %v", trial, lo, err)
			}
			if !g.feasibleExact(got) || !relClose(got, want, 1e-12) {
				t.Fatalf("trial %d λ=%v: refined %v, oracle %v", trial, lo, got, want)
			}
		}
	}
}

func TestHowardSimpleCases(t *testing.T) {
	g := NewGraph()
	a := g.AddActor("a", 6)
	g.AddEdge("aa", a, a, 2)
	got, err := g.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 3, 1e-9) {
		t.Fatalf("Howard self-loop = %v, want 3", got)
	}
	// Acyclic.
	g2 := NewGraph()
	x := g2.AddActor("x", 5)
	y := g2.AddActor("y", 2)
	g2.AddEdge("xy", x, y, 1)
	got2, err := g2.MinPeriodHoward()
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 0 {
		t.Fatalf("Howard acyclic = %v, want 0", got2)
	}
}

// TestSelfTimedRateMatchesMCM: the steady-state self-timed rate equals the
// maximum cycle mean (fundamental SRDF theorem).
func TestSelfTimedRateMatchesMCM(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for trial := 0; trial < 25; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(6))
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		rate, err := g.SelfTimedRate(1000)
		if err != nil {
			t.Fatal(err)
		}
		// The estimate carries an O(1/k) transient bias.
		if !almostEqual(rate, mcm, 2e-2) {
			t.Fatalf("trial %d: self-timed rate %v vs MCM %v", trial, rate, mcm)
		}
	}
}

// TestSelfTimedMonotonicity: adding tokens can never delay any firing
// (temporal monotonicity, §II-B2 of the paper).
func TestSelfTimedMonotonicityTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for trial := 0; trial < 30; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		base, err := g.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		g2 := g.Clone()
		// Add a token to a random edge.
		eid := EdgeID(rng.Intn(g2.NumEdges()))
		g2.SetTokens(eid, g2.Edge(eid).Tokens+1)
		more, err := g2.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		for a := range base {
			for j := range base[a] {
				if more[a][j] > base[a][j]+1e-9 {
					t.Fatalf("trial %d: adding tokens delayed firing (%d,%d): %v > %v",
						trial, a, j, more[a][j], base[a][j])
				}
			}
		}
	}
}

// TestSelfTimedMonotonicityDurations: reducing a firing duration can never
// delay any firing.
func TestSelfTimedMonotonicityDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for trial := 0; trial < 30; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(5))
		base, err := g.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		g2 := g.Clone()
		aid := ActorID(rng.Intn(g2.NumActors()))
		g2.SetDuration(aid, g2.Actor(aid).Duration*0.5)
		faster, err := g2.SelfTimed(50)
		if err != nil {
			t.Fatal(err)
		}
		for a := range base {
			for j := range base[a] {
				if faster[a][j] > base[a][j]+1e-9 {
					t.Fatalf("trial %d: faster actor delayed firing (%d,%d)", trial, a, j)
				}
			}
		}
	}
}

// TestStartTimesGivePAS: for random graphs and periods above MCM, start
// times exist and satisfy Constraint (1); below MCM they must not exist.
func TestStartTimesGivePAS(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 40; trial++ {
		g := randLiveGraph(rng, 2+rng.Intn(8))
		mcm, err := g.MinPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if mcm == 0 {
			continue
		}
		above := mcm * 1.05
		s, err := g.StartTimes(above)
		if err != nil {
			t.Fatalf("trial %d: period above MCM rejected: %v", trial, err)
		}
		if err := g.CheckPAS(s, above); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		below := mcm * 0.95
		if g.FeasiblePeriod(below) {
			t.Fatalf("trial %d: period below MCM accepted", trial)
		}
	}
}

func TestLongestPaths(t *testing.T) {
	// a(2) → b(4) → c(1) chain plus a back edge c→a with 3 tokens.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 4)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("bc", b, c, 0)
	g.AddEdge("ca", c, a, 3)
	const period = 4.0 // MCM = (2+4+1)/3 = 7/3 < 4
	d, err := g.LongestPaths(a, period)
	if err != nil {
		t.Fatal(err)
	}
	if d[a] != 0 {
		t.Fatalf("d[a] = %v", d[a])
	}
	if !almostEqual(d[b], 2, 1e-9) { // ρ(a)
		t.Fatalf("d[b] = %v, want 2", d[b])
	}
	if !almostEqual(d[c], 6, 1e-9) { // ρ(a)+ρ(b)
		t.Fatalf("d[c] = %v, want 6", d[c])
	}
	// Minimality: d is itself a feasible schedule offset assignment.
	if err := g.CheckPAS(d, period); err != nil {
		t.Fatalf("longest paths not PAS-feasible: %v", err)
	}
	// Unreachable actor: isolated node gets -Inf.
	g2 := NewGraph()
	x := g2.AddActor("x", 1)
	y := g2.AddActor("y", 1) // no edges
	d2, err := g2.LongestPaths(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(d2[y], -1) {
		t.Fatalf("unreachable actor distance = %v, want -Inf", d2[y])
	}
	// Infeasible period is rejected.
	if _, err := g.LongestPaths(a, 1); err == nil {
		t.Fatal("period below MCM accepted")
	}
	if _, err := g.LongestPaths(a, 0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestSelfTimedRateValidation(t *testing.T) {
	g := NewGraph()
	g.AddActor("a", 1)
	if _, err := g.SelfTimedRate(2); err == nil {
		t.Fatal("k < 4 accepted")
	}
}

func TestSelfTimedChainLatency(t *testing.T) {
	// a → b → c chain with no tokens: firing j of c starts at
	// j·0 offsets... with all tokens 0, every firing j of b starts after
	// firing j of a finishes.
	g := NewGraph()
	a := g.AddActor("a", 2)
	b := g.AddActor("b", 3)
	c := g.AddActor("c", 1)
	g.AddEdge("ab", a, b, 0)
	g.AddEdge("bc", b, c, 0)
	st, err := g.SelfTimed(3)
	if err != nil {
		t.Fatal(err)
	}
	// Without self-loops, a fires all its firings at t=0 (no constraints).
	if st[a][0] != 0 || st[a][2] != 0 {
		t.Fatalf("a start times: %v", st[a])
	}
	if st[b][0] != 2 || st[c][0] != 5 {
		t.Fatalf("pipeline latency wrong: b=%v c=%v", st[b][0], st[c][0])
	}
	_ = math.Pi
}
