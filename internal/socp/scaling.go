package socp

import (
	"math"

	"repro/internal/linalg"
)

// eqScales records the diagonal scalings equilibrate applied, so solutions
// can be mapped back to the original coordinates and caller-supplied warm
// starts can be mapped forward into the equilibrated ones.
type eqScales struct {
	costScale float64       // c̃ = c / σc
	rowScale  linalg.Vector // row i of (G̃ | h̃) = row i of (G | h) / rowScale[i]
	eqScale   linalg.Vector // row i of (Ã | b̃) = row i of (A | b) / eqScale[i]; nil without equalities
}

// equilibrate rescales the problem so the interior-point iterations are
// well conditioned regardless of the magnitudes of objective weights,
// constraint coefficients, or resource capacities:
//
//   - every orthant row of (G | h) is divided by its coefficient inf-norm
//     (one uniform factor per second-order-cone block, which preserves the
//     cone), and likewise for rows of (A | b);
//   - the cost vector is divided by max(1, ‖c‖∞).
//
// p must carry its constraint matrix in CSR form. The scaled copy shares
// the immutable pattern arrays with the caller's matrix and clones only the
// values. It returns the scaled problem plus the applied scales; unscale
// restores the solution of the original problem (x is unchanged; slacks,
// duals, and objective values are rescaled).
func equilibrate(p *Problem) (*Problem, *eqScales) {
	n := len(p.C)
	m := p.Dims.Dim()

	costScale := math.Max(1, linalg.NormInf(p.C))
	c := p.C.Clone()
	c.Scale(1 / costScale)

	//bbvet:allow csralias the pattern is immutable and shared by design; only Val is private
	g := &linalg.SparseMatrix{
		Rows: p.GSparse.Rows, Cols: p.GSparse.Cols,
		RowPtr: p.GSparse.RowPtr, ColIdx: p.GSparse.ColIdx,
		Val: append([]float64(nil), p.GSparse.Val...),
	}
	h := p.H.Clone()
	rowScale := make(linalg.Vector, m)
	rowNorm := func(i int) float64 {
		return linalg.NormInf(g.Val[g.RowPtr[i]:g.RowPtr[i+1]])
	}
	// Orthant rows scale independently. Including |h| in the scale keeps
	// loose capacity constraints (tiny coefficients, huge bound) from
	// dominating the least-squares starting point.
	for i := 0; i < p.Dims.NonNeg; i++ {
		r := math.Max(rowNorm(i), math.Abs(h[i]))
		if r == 0 {
			r = 1
		}
		rowScale[i] = r
	}
	// SOC blocks share one factor to stay a cone constraint.
	off := p.Dims.NonNeg
	for _, q := range p.Dims.SOC {
		r := 0.0
		for i := off; i < off+q; i++ {
			if v := math.Max(rowNorm(i), math.Abs(h[i])); v > r {
				r = v
			}
		}
		if r == 0 {
			r = 1
		}
		for i := off; i < off+q; i++ {
			rowScale[i] = r
		}
		off += q
	}
	for i := 0; i < m; i++ {
		inv := 1 / rowScale[i]
		row := g.Val[g.RowPtr[i]:g.RowPtr[i+1]]
		for j := range row {
			row[j] *= inv
		}
		h[i] *= inv
	}

	sp := &Problem{C: c, GSparse: g, H: h, Dims: p.Dims}
	sc := &eqScales{costScale: costScale, rowScale: rowScale}
	equilibrateEq(p, sp, sc, n)
	return sp, sc
}

// equilibrateEq scales the equality rows of (A | b) into sp. No-op without
// equalities.
func equilibrateEq(p, sp *Problem, sc *eqScales, n int) {
	if p.A == nil {
		return
	}
	a := p.A.Clone()
	b := p.B.Clone()
	sc.eqScale = make(linalg.Vector, a.Rows)
	for i := 0; i < a.Rows; i++ {
		r := linalg.NormInf(a.Data[i*n : (i+1)*n])
		if r == 0 {
			r = math.Max(1, math.Abs(b[i]))
		}
		sc.eqScale[i] = r
		inv := 1 / r
		row := a.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] *= inv
		}
		b[i] *= inv
	}
	sp.A = a
	sp.B = b
}

// unscale maps a solution of the equilibrated problem back to the original
// coordinates: x unchanged, s = D·s̃, z = σc·D⁻¹·z̃, y = σc·DA⁻¹·ỹ.
func (sc *eqScales) unscale(sol *Solution) {
	if sol == nil {
		return
	}
	m := len(sc.rowScale)
	for i := 0; i < m; i++ {
		if len(sol.S) == m {
			sol.S[i] *= sc.rowScale[i]
		}
		if len(sol.Z) == m {
			sol.Z[i] *= sc.costScale / sc.rowScale[i]
		}
	}
	for i := range sol.Y {
		sol.Y[i] *= sc.costScale / sc.eqScale[i]
	}
	sol.PrimalObj *= sc.costScale
	sol.DualObj *= sc.costScale
	sol.Gap *= sc.costScale
}

// scaleWarm maps a warm start given in the original coordinates into the
// equilibrated ones — the inverse of unscale, applied to a fresh copy (the
// caller's vectors are never written). Iterates with mismatched dimensions
// or non-finite entries return nil, which makes the solver fall back to the
// cold start instead of polluting the iteration.
func (sc *eqScales) scaleWarm(w *WarmStart, n int) *WarmStart {
	if w == nil {
		return nil
	}
	m := len(sc.rowScale)
	pe := len(sc.eqScale)
	if len(w.X) != n || len(w.S) != m || len(w.Z) != m || len(w.Y) != pe {
		return nil
	}
	sw := &WarmStart{X: w.X.Clone(), S: w.S.Clone(), Z: w.Z.Clone(), Y: w.Y.Clone()}
	for i := 0; i < m; i++ {
		sw.S[i] /= sc.rowScale[i]
		sw.Z[i] *= sc.rowScale[i] / sc.costScale
	}
	for i := 0; i < pe; i++ {
		sw.Y[i] *= sc.eqScale[i] / sc.costScale
	}
	for _, v := range [][]float64{sw.X, sw.S, sw.Z, sw.Y} {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil
			}
		}
	}
	return sw
}
