package socp

import (
	"sort"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// sparseView caches the iteration-invariant sparse structure of a problem's
// constraint matrices: CSR forms of G and A for the mat-vecs of the main
// loop, and a value template gs for the NT-scaled matrix W⁻¹G. The symbolic
// pattern of gs is fixed across all IPM iterations of a solve — only the
// scaling W changes — so the normal-equations assembly H = (W⁻¹G)ᵀ(W⁻¹G)
// reuses it every iteration and touches structural nonzeros only:
//
//   - orthant rows of W⁻¹G keep G's row pattern (W is diagonal there);
//   - the rows of each second-order-cone block share the union of the
//     block's row patterns, because the block scaling P(v⁻¹) mixes rows only
//     within the block.
//
// SRDF-derived constraint rows touch 2–3 variables each, so per-iteration
// factor setup drops from the dense O(m·n²) to O(nnz·rowwidth).
type sparseView struct {
	g  *linalg.SparseMatrix // exact pattern of G
	a  *linalg.SparseMatrix // exact pattern of A, nil without equalities
	gs *linalg.SparseMatrix // W⁻¹G template; values rewritten by fillScaled

	dims cone.Dims
	socs []socBlockView

	colBuf, outBuf linalg.Vector // gather/scatter scratch, len = max block size

	// ne is the sparse factorization pipeline (normal equations or reduced
	// KKT), built lazily on the first sparse-backend factor call because its
	// symbolic analysis only depends on the fixed gs pattern.
	ne *neFactor
}

// socBlockView is the fixed structural data of one SOC block of G.
type socBlockView struct {
	off  int   // first row of the block in G
	q    int   // block size
	cols []int // sorted union of the block rows' column patterns
	// gv is the q×len(cols) row-major dense copy of G's block entries:
	// gv[r*len(cols)+k] = G[off+r][cols[k]].
	gv []float64
}

// newSparseView builds the sparse structure for a validated problem that
// carries its constraint matrix in CSR form, using that matrix directly.
func newSparseView(p *Problem) *sparseView {
	sv := &sparseView{dims: p.Dims, g: p.GSparse}
	if p.A != nil {
		sv.a = linalg.NewSparseFromDense(p.A)
	}
	n := sv.g.Cols
	pattern := make([][]int, sv.g.Rows)
	for i := 0; i < p.Dims.NonNeg; i++ {
		lo, hi := sv.g.RowPtr[i], sv.g.RowPtr[i+1]
		//bbvet:allow csralias transient pattern view; NewSparseFromPattern copies it below
		pattern[i] = sv.g.ColIdx[lo:hi]
	}
	off := p.Dims.NonNeg
	maxQ := 0
	for _, q := range p.Dims.SOC {
		if q > maxQ {
			maxQ = q
		}
		// Union of the block rows' patterns.
		seen := map[int]bool{}
		for r := off; r < off+q; r++ {
			for k := sv.g.RowPtr[r]; k < sv.g.RowPtr[r+1]; k++ {
				seen[sv.g.ColIdx[k]] = true
			}
		}
		cols := make([]int, 0, len(seen))
		for j := range seen {
			cols = append(cols, j)
		}
		sort.Ints(cols)
		blk := socBlockView{off: off, q: q, cols: cols, gv: make([]float64, q*len(cols))}
		for r := 0; r < q; r++ {
			for k, j := range cols {
				blk.gv[r*len(cols)+k] = sv.g.At(off+r, j)
			}
		}
		sv.socs = append(sv.socs, blk)
		for r := off; r < off+q; r++ {
			pattern[r] = cols
		}
		off += q
	}
	sv.gs = linalg.NewSparseFromPattern(sv.g.Rows, n, pattern)
	sv.colBuf = linalg.NewVector(maxQ)
	sv.outBuf = linalg.NewVector(maxQ)
	return sv
}

// fillScaled overwrites the values of gs with W⁻¹G for the given NT scaling
// (W = I when w is nil). The symbolic pattern never changes.
//
//bbvet:hotpath
func (sv *sparseView) fillScaled(w *cone.Scaling) {
	// Orthant rows: gs shares g's pattern there, so the value ranges line up
	// slot for slot.
	for i := 0; i < sv.dims.NonNeg; i++ {
		inv := 1.0
		if w != nil {
			inv = w.OrthantInv(i)
		}
		lo, hi := sv.g.RowPtr[i], sv.g.RowPtr[i+1]
		dst := sv.gs.Val[sv.gs.RowPtr[i]:sv.gs.RowPtr[i+1]]
		for k := lo; k < hi; k++ {
			dst[k-lo] = inv * sv.g.Val[k]
		}
	}
	// SOC blocks: apply P(v⁻¹) column by column over the union pattern.
	for bi := range sv.socs {
		blk := &sv.socs[bi]
		nc := len(blk.cols)
		col := sv.colBuf[:blk.q]
		out := sv.outBuf[:blk.q]
		for k := 0; k < nc; k++ {
			for r := 0; r < blk.q; r++ {
				col[r] = blk.gv[r*nc+k]
			}
			if w != nil {
				w.ApplyInvSOC(bi, out, col)
			} else {
				copy(out, col)
			}
			for r := 0; r < blk.q; r++ {
				sv.gs.Val[sv.gs.RowPtr[blk.off+r]+k] = out[r]
			}
		}
	}
}
