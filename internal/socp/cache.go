package socp

import (
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// PatternCache shares the per-solve symbolic work of the sparse KKT
// pipeline across solves whose constraint matrices carry the same sparsity
// pattern. A sweep solves the same topology dozens of times — only bounds,
// weights, and the NT scaling values change — so the pattern-dependent
// setup (the AᵀA scatter plan for H = (W⁻¹G)ᵀ(W⁻¹G), the fill-reducing AMD
// ordering, the elimination tree, the symbolic factorization, and the
// reduced-KKT scatter maps) is identical at every point. The cache pools
// the whole assembled pipeline (neFactor) per pattern:
//
//   - a pool hit skips every symbolic step and goes straight to numeric
//     refactorization, allocation-free;
//   - a pool miss still shares the factorization's symbolic analysis
//     through an embedded linalg.SymbolicCache, so concurrent first solves
//     of one pattern analyze it once.
//
// Pooled pipelines carry no values from previous solves into new results:
// every numeric buffer a solve reads is fully rewritten before use (AᵀA
// values, KKT values, factor columns), and the equality block is rewritten
// from the acquiring problem on every hit. Solves through a cache are
// bit-identical to solves without one.
//
// Keys are canonical hashes of the scaled-G and A patterns, verified
// entry-for-entry on every lookup, so hash collisions degrade to a miss
// rather than a wrong reuse. The zero value is not usable; call
// NewPatternCache. All methods are safe for concurrent use.
type PatternCache struct {
	syms *linalg.SymbolicCache

	mu      sync.Mutex
	entries map[uint64][]*patternEntry

	hits   atomic.Int64
	misses atomic.Int64
}

// patternEntry pools the factorization pipelines of one (G-pattern,
// A-pattern, backend) triple. The pattern copies rule out hash collisions;
// the backend is part of the identity because a pooled pipeline's numeric
// workspace is built for one factorization layout — a simplicial pipeline
// must never be handed to a solve that asked for the supernodal backend.
type patternEntry struct {
	gsRows, gsCols int
	gsRowPtr       []int
	gsColIdx       []int
	hasA           bool
	aRows, aCols   int
	aRowPtr        []int
	aColIdx        []int
	backend        Factorization

	pool sync.Pool // of *neFactor
}

// NewPatternCache returns an empty cache.
func NewPatternCache() *PatternCache {
	return &PatternCache{
		syms:    linalg.NewSymbolicCache(),
		entries: map[uint64][]*patternEntry{},
	}
}

// Stats reports the cache's lifetime pool hits (symbolic and numeric work
// skipped entirely) and misses (pipeline built, with at most the
// factorization's symbolic analysis shared).
func (pc *PatternCache) Stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// key combines the canonical pattern hashes of the scaled-G template and
// the equality matrix (a fixed sentinel when there is none) with the
// resolved factorization backend.
func key(gs, a *linalg.SparseMatrix, backend Factorization) uint64 {
	const prime64 = 1099511628211
	h := linalg.PatternHash(gs)
	if a != nil {
		h = (h ^ linalg.PatternHash(a)) * prime64
	}
	return (h ^ uint64(backend)) * prime64
}

// matches reports whether the entry serves exactly this pattern pair on
// this backend.
//
//bbvet:hotpath
func (e *patternEntry) matches(gs, a *linalg.SparseMatrix, backend Factorization) bool {
	if e.backend != backend {
		return false
	}
	if a == nil != !e.hasA {
		return false
	}
	if !patternEqual(e.gsRows, e.gsCols, e.gsRowPtr, e.gsColIdx, gs) {
		return false
	}
	return a == nil || patternEqual(e.aRows, e.aCols, e.aRowPtr, e.aColIdx, a)
}

//bbvet:hotpath
func patternEqual(rows, cols int, rowPtr, colIdx []int, m *linalg.SparseMatrix) bool {
	if m.Rows != rows || m.Cols != cols || len(m.ColIdx) != len(colIdx) {
		return false
	}
	for i, p := range m.RowPtr {
		if rowPtr[i] != p {
			return false
		}
	}
	for i, c := range m.ColIdx {
		if colIdx[i] != c {
			return false
		}
	}
	return true
}

// acquire returns a factorization pipeline for the view's pattern pair on
// the resolved backend: a pooled one when available (equality block
// rewritten for this problem, supernodal worker bound refreshed), otherwise
// a freshly built one registered under the pattern. The caller owns the
// pipeline until release.
//
//bbvet:hotpath
func (pc *PatternCache) acquire(sv *sparseView, backend Factorization, workers int) *neFactor {
	e := pc.entry(sv.gs, sv.a, backend)
	if f, ok := e.pool.Get().(*neFactor); ok {
		pc.hits.Add(1)
		// The equality block of the pooled KKT matrix holds the previous
		// problem's A values; rewrite it from this one.
		f.setStaticA(sv.a)
		// The worker bound is a per-solve setting, not part of the pooled
		// identity; refresh it (scheduling only — results never change).
		if sc, ok := f.chol.(*linalg.SupernodalCholesky); ok {
			//bbvet:allow hotalloc grows per-worker scratch only when the bound rises, steady state is a no-op
			sc.SetParallelism(workers)
		}
		return f
	}
	pc.misses.Add(1)
	//bbvet:allow hotalloc cache miss: the pipeline is built once per pattern and backend pair
	f := newNEFactor(sv, sv.a, pc.syms, backend, workers)
	f.cacheEntry = e
	return f
}

// entry finds or creates the pool entry of a pattern pair and backend.
//
//bbvet:hotpath
func (pc *PatternCache) entry(gs, a *linalg.SparseMatrix, backend Factorization) *patternEntry {
	h := key(gs, a, backend)
	pc.mu.Lock()
	for _, e := range pc.entries[h] {
		if e.matches(gs, a, backend) {
			pc.mu.Unlock()
			return e
		}
	}
	pc.mu.Unlock()
	//bbvet:allow hotalloc first sighting of this pattern pair, measured cold
	return pc.insert(h, gs, a, backend)
}

// insert registers a new pattern pair, copying the patterns for collision
// verification; a concurrent insert of the same pair wins the race cleanly.
func (pc *PatternCache) insert(h uint64, gs, a *linalg.SparseMatrix, backend Factorization) *patternEntry {
	e := &patternEntry{
		gsRows: gs.Rows, gsCols: gs.Cols,
		gsRowPtr: append([]int(nil), gs.RowPtr...),
		gsColIdx: append([]int(nil), gs.ColIdx...),
		backend:  backend,
	}
	if a != nil {
		e.hasA = true
		e.aRows, e.aCols = a.Rows, a.Cols
		e.aRowPtr = append([]int(nil), a.RowPtr...)
		e.aColIdx = append([]int(nil), a.ColIdx...)
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for _, prev := range pc.entries[h] {
		if prev.matches(gs, a, backend) {
			return prev
		}
	}
	pc.entries[h] = append(pc.entries[h], e)
	return e
}

// release returns a pipeline acquired from this cache to its pattern's
// pool. Pipelines built outside any cache (cacheEntry == nil) are ignored.
// The caller must not use f after releasing it.
//
//bbvet:hotpath
func (pc *PatternCache) release(f *neFactor) {
	if f == nil || f.cacheEntry == nil {
		return
	}
	//bbvet:allow hotalloc pointer stored in interface directly, no allocation; AllocsPerRun guards pin it
	f.cacheEntry.pool.Put(f)
}
