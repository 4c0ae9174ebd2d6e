package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// randomProblem builds a random SOCP of the given shape with a known interior
// primal and dual point (same construction as the strong-duality tests):
// h = Gx₀ + s₀ with s₀ interior, c = −Gᵀz₀ with z₀ interior. fill is the
// density of G (each entry is nonzero with that probability, but every column
// gets at least one entry so the problem stays bounded). With eq true it adds
// a consistent equality block A x = A x₀, exercising the LDLᵀ reduced-KKT
// path.
func randomProblem(rng *rand.Rand, n, l, nsoc int, fill float64, eq bool) *Problem {
	dims := cone.Dims{NonNeg: l}
	for b := 0; b < nsoc; b++ {
		dims.SOC = append(dims.SOC, 3)
	}
	m := dims.Dim()
	g := linalg.NewMatrix(m, n)
	for i := range g.Data {
		// Leave structural zeros so the sparse path has pattern to exploit.
		if rng.Float64() < fill {
			g.Data[i] = rng.NormFloat64()
		}
	}
	for j := 0; j < n; j++ {
		g.Data[rng.Intn(m)*n+j] = rng.NormFloat64()
	}
	x0 := linalg.NewVector(n)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	interior := func(v linalg.Vector) {
		for i := 0; i < l; i++ {
			v[i] = 0.1 + rng.Float64()
		}
		off := l
		for range dims.SOC {
			var tail float64
			for i := 1; i < 3; i++ {
				v[off+i] = rng.NormFloat64()
				tail += v[off+i] * v[off+i]
			}
			v[off] = math.Sqrt(tail) + 0.1 + rng.Float64()
			off += 3
		}
	}
	s0 := linalg.NewVector(m)
	interior(s0)
	h := linalg.NewVector(m)
	g.MulVec(h, x0)
	linalg.Add(h, h, s0)
	z0 := linalg.NewVector(m)
	interior(z0)
	c := linalg.NewVector(n)
	g.MulVecT(c, z0)
	c.Scale(-1)
	p := &Problem{C: c, G: g, H: h, Dims: dims}
	if eq {
		pe := 1 + rng.Intn(2)
		if pe >= n {
			pe = n - 1
		}
		a := linalg.NewMatrix(pe, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		b := linalg.NewVector(pe)
		a.MulVec(b, x0)
		p.A = a
		p.B = b
		// Dual feasibility needs c = −Gᵀz₀ − Aᵀy₀; keep y₀ = 0.
	}
	return p
}

// TestSparseAssemblyMatchesDenseOracle pins the sparse *assembly* path
// (FactorDense: sparse Gᵀ W⁻² G refill handed to the dense factorization)
// against the dense oracle (Options.DenseKKT). The two paths assemble
// Gᵀ W⁻² G in the same summation order and factorize identically, so the
// iterates are bit-identical in practice: the test demands matching
// iteration counts and 1e-6 agreement.
func TestSparseAssemblyMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4), rng.Intn(3), 0.8, trial%3 == 0)
		sparse, err := Solve(p, Options{Factorization: FactorDense})
		if err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		dense, err := Solve(p, Options{DenseKKT: true})
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if sparse.Status != dense.Status {
			t.Fatalf("trial %d: status sparse=%v dense=%v", trial, sparse.Status, dense.Status)
		}
		if sparse.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v", trial, sparse.Status)
		}
		scale := math.Max(1, math.Abs(dense.PrimalObj))
		if d := math.Abs(sparse.PrimalObj - dense.PrimalObj); d > 1e-6*scale {
			t.Fatalf("trial %d: objective differs by %g (sparse %v, dense %v)",
				trial, d, sparse.PrimalObj, dense.PrimalObj)
		}
		for i := range sparse.X {
			if d := math.Abs(sparse.X[i] - dense.X[i]); d > 1e-6*scale {
				t.Fatalf("trial %d: x[%d] differs by %g (sparse %v, dense %v)",
					trial, i, d, sparse.X[i], dense.X[i])
			}
		}
		if sparse.Iterations != dense.Iterations {
			t.Fatalf("trial %d: iteration counts diverge: sparse %d, dense %d",
				trial, sparse.Iterations, dense.Iterations)
		}
	}
}

// TestSparseFactorMatchesDenseOracle is the property test of the full sparse
// factorization pipeline: the default solve (AMD-ordered simplicial LDLᵀ with
// symbolic reuse) must agree with the dense oracle to 1e-6 on randomized
// feasible instances. The elimination order differs from the dense
// factorization, so the iterates round differently and iteration counts may
// diverge by one or two — only the converged answers are compared. Tiny
// random sparse instances are often degenerate (the optimal face is a whole
// segment and any point on it is correct), so the test checks what is
// invariant: both paths certify optimality within the solver's tolerances
// and the optimal values agree tightly. Entrywise solution agreement on
// non-degenerate instances is covered by the paper-instance oracle test in
// internal/core.
func TestSparseFactorMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(5)
		p := randomProblem(rng, n, n+rng.Intn(4), rng.Intn(3), 0.8, trial%3 == 0)
		sparse, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: sparse solve: %v", trial, err)
		}
		dense, err := Solve(p, Options{DenseKKT: true})
		if err != nil {
			t.Fatalf("trial %d: dense solve: %v", trial, err)
		}
		if sparse.Status != StatusOptimal || dense.Status != StatusOptimal {
			t.Fatalf("trial %d: status sparse=%v dense=%v", trial, sparse.Status, dense.Status)
		}
		for _, s := range []*Solution{sparse, dense} {
			if s.PrimalRes > 1e-7 || s.DualRes > 1e-7 {
				t.Fatalf("trial %d: residuals too large: pres=%g dres=%g", trial, s.PrimalRes, s.DualRes)
			}
		}
		scale := math.Max(1, math.Abs(dense.PrimalObj))
		if d := math.Abs(sparse.PrimalObj - dense.PrimalObj); d > 1e-7*scale {
			t.Fatalf("trial %d: objective differs by %g (sparse %v, dense %v)",
				trial, d, sparse.PrimalObj, dense.PrimalObj)
		}
	}
}

// TestSparseViewPattern sanity-checks the sparse view against the dense G
// it mirrors.
func TestSparseViewPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := randomProblem(rng, 2+rng.Intn(5), 1+rng.Intn(4), rng.Intn(3), 0.8, true)
	sv := newSparseView(p.csr())
	gd := sv.g.ToDense()
	for i := 0; i < p.G.Rows; i++ {
		for j := 0; j < p.G.Cols; j++ {
			if gd.At(i, j) != p.G.At(i, j) {
				t.Fatalf("sparse G (%d,%d) = %v, want %v", i, j, gd.At(i, j), p.G.At(i, j))
			}
		}
	}
	if sv.a == nil || sv.a.Rows != p.A.Rows {
		t.Fatal("sparse A missing")
	}
	// Unscaled fill (w = nil) must reproduce G on the shared pattern.
	sv.fillScaled(nil)
	ata := linalg.NewMatrix(p.G.Cols, p.G.Cols)
	sv.gs.AtAInto(ata)
	want := linalg.NewMatrix(p.G.Cols, p.G.Cols)
	p.G.AtAInto(want)
	for i := range ata.Data {
		if math.Abs(ata.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("unscaled GᵀG entry %d = %v, want %v", i, ata.Data[i], want.Data[i])
		}
	}
}

// BenchmarkSolveSparseVsDense pits the KKT backends against each other on a
// mid-size structured instance — ~6% dense G, like the model matrices the
// builder emits, where skipping structural zeros in Gᵀ W⁻² G is the whole
// point. Sparse is the full pipeline (sparse assembly + simplicial LDLᵀ),
// SparseAssembly isolates the assembly win (sparse refill, dense factor),
// Dense is the all-dense oracle.
func BenchmarkSolveSparseVsDense(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	p := randomProblem(rng, 60, 120, 20, 0.06, true)
	for _, bench := range []struct {
		name string
		opt  Options
	}{
		{"Sparse", Options{}},
		{"SparseAssembly", Options{Factorization: FactorDense}},
		{"Dense", Options{DenseKKT: true}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p, bench.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
