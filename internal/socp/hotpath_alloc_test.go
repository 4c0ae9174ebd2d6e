package socp

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// interiorPoint fills v with a strictly interior point of dims.
func interiorPoint(rng *rand.Rand, dims cone.Dims, v linalg.Vector) {
	for i := 0; i < dims.NonNeg; i++ {
		v[i] = 0.1 + rng.Float64()
	}
	off := dims.NonNeg
	for _, q := range dims.SOC {
		var tail float64
		for i := 1; i < q; i++ {
			v[off+i] = rng.NormFloat64()
			tail += v[off+i] * v[off+i]
		}
		v[off] = math.Sqrt(tail) + 0.1 + rng.Float64()
		off += q
	}
}

// TestPerIterationRefactorizationAllocFree pins the zero-alloc guarantee of
// the sparse per-iteration pipeline end to end: NT rescale of the fixed
// W⁻¹G pattern, AᵀA refill, and numeric refactorization — for both the
// pe == 0 normal-equations path and the quasi-definite reduced-KKT path —
// allocate nothing after the first iteration's symbolic analysis. This is
// the dynamic check backing the //bbvet:hotpath annotations that the
// hotalloc analyzer enforces statically.
// TestPatternCacheReacquireAllocFree pins the steady state of the pattern
// cache: once a pipeline for a pattern has been built and released, the
// acquire → rewrite equality block → refactorize → release cycle a cached
// sweep solve performs is allocation-free. (The first acquire of a pattern
// pays the build; every later one must not.)
func TestPatternCacheReacquireAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items at random; steady state is not alloc-free under -race")
	}
	rng := rand.New(rand.NewSource(12))
	for _, eq := range []bool{false, true} {
		for _, backend := range []Factorization{FactorSparse, FactorSupernodal} {
			p := randomProblem(rng, 14, 10, 2, 0.3, eq)
			sv := newSparseView(p.csr())
			pc := NewPatternCache()
			m := p.Dims.Dim()
			s, z := linalg.NewVector(m), linalg.NewVector(m)
			interiorPoint(rng, p.Dims, s)
			interiorPoint(rng, p.Dims, z)
			w, err := cone.NewScaling(p.Dims, s, z)
			if err != nil {
				t.Fatal(err)
			}
			const reg = 1e-10
			cycle := func() error {
				ne := pc.acquire(sv, backend, 1)
				defer pc.release(ne)
				sv.fillScaled(w)
				ne.ata.Compute(sv.gs)
				if ne.pe == 0 {
					return ne.chol.Factorize(ne.ata.Result, reg, reg)
				}
				ne.fillKKT(reg)
				return ne.chol.FactorizeQuasiDef(ne.kkt, reg)
			}
			if err := cycle(); err != nil { // build + register the pattern
				t.Fatal(err)
			}
			var ferr error
			allocs := testing.AllocsPerRun(20, func() {
				if err := cycle(); err != nil {
					ferr = err
				}
			})
			if ferr != nil {
				t.Fatal(ferr)
			}
			if allocs != 0 {
				t.Fatalf("eq=%v backend=%v: cached reacquire cycle allocated %.1f times per run, want 0", eq, backend, allocs)
			}
			if hits, misses := pc.Stats(); hits < 20 || misses != 1 {
				t.Fatalf("eq=%v backend=%v: stats hits=%d misses=%d", eq, backend, hits, misses)
			}
		}
	}
}

func TestPerIterationRefactorizationAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, eq := range []bool{false, true} {
		p := randomProblem(rng, 14, 10, 2, 0.3, eq)
		sv := newSparseView(p.csr())
		ne := sv.normalEq(nil, FactorSparse, 1)
		m := p.Dims.Dim()
		s, z := linalg.NewVector(m), linalg.NewVector(m)
		interiorPoint(rng, p.Dims, s)
		interiorPoint(rng, p.Dims, z)
		w, err := cone.NewScaling(p.Dims, s, z)
		if err != nil {
			t.Fatal(err)
		}
		const reg = 1e-10
		iterate := func() error {
			sv.fillScaled(w)
			ne.ata.Compute(sv.gs)
			if ne.pe == 0 {
				return ne.chol.Factorize(ne.ata.Result, reg, reg)
			}
			ne.fillKKT(reg)
			return ne.chol.FactorizeQuasiDef(ne.kkt, reg)
		}
		if err := iterate(); err != nil { // symbolic analysis + warm-up
			t.Fatal(err)
		}
		var ferr error
		allocs := testing.AllocsPerRun(20, func() {
			if err := iterate(); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			t.Fatal(ferr)
		}
		if allocs != 0 {
			t.Fatalf("eq=%v: per-iteration refactorization allocated %.1f times per run, want 0", eq, allocs)
		}
	}
}
