package socp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cone"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// Solve minimizes cᵀx subject to Gx + s = h, s ∈ K, Ax = b using an
// infeasible-start Mehrotra predictor-corrector interior-point method with
// Nesterov-Todd scaling.
func Solve(p *Problem, opt Options) (*Solution, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext is Solve with cancellation: the context is checked once per
// interior-point iteration, and a canceled context or expired deadline makes
// the solve return promptly with StatusCanceled (diagnostics of the last
// iterate filled in, no error). The iterates themselves are unaffected by
// the context — a solve that runs to completion is bit-identical whether or
// not a (non-canceled) context was supplied.
func SolveContext(ctx context.Context, p *Problem, opt Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Dims.Dim() == 0 {
		return nil, errors.New("socp: cone dimension is zero")
	}
	o := opt.withDefaults()
	if o.DenseKKT && !p.DenseKKTFits() {
		return nil, fmt.Errorf("socp: DenseKKT needs a dense %d×%d G, past DenseKKTMaxCells",
			p.Dims.Dim(), len(p.C))
	}
	// A dense G is accepted as input only: it is converted once, here, and
	// solved on the CSR path like every other problem.
	p = p.csr()
	sp, scales := equilibrate(p)
	s := &state{ctx: ctx, p: sp, opt: o}
	// The warm start arrives in the original coordinates; map it into the
	// equilibrated ones (nil on dimension mismatch or non-finite entries,
	// which silently selects the cold start).
	s.warm = scales.scaleWarm(s.opt.WarmStart, len(p.C))
	sol, err := s.run()
	// Return the borrowed factorization pipeline to the pattern cache; the
	// sparse view is per-solve, so nothing references it after this.
	if pc := s.opt.Cache; pc != nil {
		pc.release(s.sv.ne)
	}
	scales.unscale(sol)
	return sol, err
}

// csr returns p with a dense G converted to CSR, the only carrier the
// solver works on. A problem already in CSR form is returned as is.
func (p *Problem) csr() *Problem {
	if p.G == nil {
		return p
	}
	q := *p
	q.G, q.GSparse = nil, linalg.NewSparseFromDense(p.G)
	return &q
}

// state carries the iterates and workspace of one solve.
type state struct {
	ctx context.Context
	p   *Problem
	opt Options

	n, m, pe int // variables, cone dim, equality rows

	// warm is the caller's warm start mapped into the equilibrated
	// coordinates; nil selects the cold least-squares starting point.
	warm *WarmStart
	// warmActive records that the iterate was installed from the warm start
	// without the interior-margin shift: the shift is deferred until the
	// run loop decides it actually has to take a step, so a warm point that
	// already satisfies the stopping tolerances terminates at iteration 0
	// without ever factorizing.
	warmActive bool

	x, y  linalg.Vector
	s, z  linalg.Vector
	e     linalg.Vector // cone identity
	bnorm float64
	hnorm float64
	cnorm float64

	// sv is the sparse view of the (equilibrated) problem's constraint
	// matrices, built once per solve; every mat-vec of the solve runs on it.
	sv *sparseView
	// factorBackend is the resolved sparse factorization backend
	// (FactorSparse or FactorSupernodal, never FactorAuto); meaningful only
	// when sparseFactor() is true.
	factorBackend Factorization
	ws            workspace
}

// workspace holds every buffer the solver reuses across iterations, so that
// after initWorkspace the hot loop performs no matrix allocations and no
// per-iteration vector allocations.
type workspace struct {
	// KKT assembly and factorization (reused every iteration).
	gd   *linalg.Matrix // dense copy of the equilibrated G (DenseKKT only)
	gw   *linalg.Matrix // W⁻¹G scratch of the dense assembly (DenseKKT only)
	hmat *linalg.Matrix // Gᵀ W⁻² G (unregularized, for refinement)
	hreg *linalg.Matrix // hmat + reg·I, the factorized matrix (pe == 0)
	chol *linalg.Cholesky
	kkt  *linalg.Matrix // assembled [[H,Aᵀ],[A,0]] (pe > 0)
	ldlt *linalg.LDLT

	// kktFactor.solve: iterative-refinement scratch.
	r1, r2, r3          linalg.Vector // n, pe, m residuals
	w2z                 linalg.Vector // m
	curX, curY, curZ    linalg.Vector // running refined iterate
	bestX, bestY, bestZ linalg.Vector // best iterate seen
	corX, corY, corZ    linalg.Vector // correction step

	// solveOnce scratch.
	t, rhs     linalg.Vector // m, n
	full, fsol linalg.Vector // n+pe (pe > 0)

	// Main-loop scratch.
	rx, ry, rz         linalg.Vector // residuals
	gz, gx, ax         linalg.Vector // Farkas certificate scratch (n, m, pe)
	nbx, nby, nbz, nwu linalg.Vector // newton right-hand sides
	nt, nds            linalg.Vector // newton ds recovery
	uaff               linalg.Vector // m, scaled complementarity term
	wds, wdz, corr, dc linalg.Vector // m, Mehrotra corrector
	ns, nz             linalg.Vector // m, step back-off double buffers
}

// initWorkspace allocates the per-solve buffers once; the iteration loop
// reuses them instead of calling NewMatrix/Clone each pass. With the sparse
// factorization backend the dense factor storage (n² and larger) is never
// allocated: the sparse pipeline owns pattern-sized buffers instead.
func (st *state) initWorkspace() {
	n, m, pe := st.n, st.m, st.pe
	ws := &st.ws
	st.sv = newSparseView(st.p)
	if st.opt.DenseKKT {
		// The all-dense oracle densifies G here, and only here.
		ws.gd = st.sv.g.ToDense()
		ws.gw = linalg.NewMatrix(m, n)
	}
	if st.sparseFactor() {
		st.factorBackend = ResolveFactorization(st.opt.Factorization, n+pe)
		if pe > 0 {
			ws.full = linalg.NewVector(n + pe)
			ws.fsol = linalg.NewVector(n + pe)
		}
	} else if pe == 0 {
		ws.hmat = linalg.NewMatrix(n, n)
		ws.hreg = linalg.NewMatrix(n, n)
		ws.chol = linalg.NewCholeskyWorkspace(n)
	} else {
		ws.hmat = linalg.NewMatrix(n, n)
		ws.kkt = linalg.NewMatrix(n+pe, n+pe)
		ws.ldlt = linalg.NewLDLTWorkspace(n + pe)
		ws.full = linalg.NewVector(n + pe)
		ws.fsol = linalg.NewVector(n + pe)
	}
	ws.r1 = linalg.NewVector(n)
	ws.r2 = linalg.NewVector(pe)
	ws.r3 = linalg.NewVector(m)
	ws.w2z = linalg.NewVector(m)
	ws.curX, ws.curY, ws.curZ = linalg.NewVector(n), linalg.NewVector(pe), linalg.NewVector(m)
	ws.bestX, ws.bestY, ws.bestZ = linalg.NewVector(n), linalg.NewVector(pe), linalg.NewVector(m)
	ws.corX, ws.corY, ws.corZ = linalg.NewVector(n), linalg.NewVector(pe), linalg.NewVector(m)
	ws.t = linalg.NewVector(m)
	ws.rhs = linalg.NewVector(n)
	ws.rx = linalg.NewVector(n)
	ws.ry = linalg.NewVector(pe)
	ws.rz = linalg.NewVector(m)
	ws.gz = linalg.NewVector(n)
	ws.gx = linalg.NewVector(m)
	ws.ax = linalg.NewVector(pe)
	ws.nbx = linalg.NewVector(n)
	ws.nby = linalg.NewVector(pe)
	ws.nbz = linalg.NewVector(m)
	ws.nwu = linalg.NewVector(m)
	ws.nt = linalg.NewVector(m)
	ws.nds = linalg.NewVector(m)
	ws.uaff = linalg.NewVector(m)
	ws.wds = linalg.NewVector(m)
	ws.wdz = linalg.NewVector(m)
	ws.corr = linalg.NewVector(m)
	ws.dc = linalg.NewVector(m)
	ws.ns = linalg.NewVector(m)
	ws.nz = linalg.NewVector(m)
}

// sparseFactor reports whether the sparse simplicial factorization backend
// is active: sparse assembly must be on (no DenseKKT) and the factorization
// choice must not force the dense factor.
func (st *state) sparseFactor() bool {
	return !st.opt.DenseKKT && st.opt.Factorization != FactorDense
}

// kktFactor is a factorized KKT system for a fixed NT scaling. It solves
//
//	[ 0   Aᵀ   Gᵀ ] [x]   [bx]
//	[ A   0    0  ] [y] = [by]
//	[ G   0  −W²  ] [z]   [bz]
//
// via the normal equations H = Gᵀ W⁻² G (pe == 0) or an LDLᵀ factorization of
// the reduced KKT matrix [[H, Aᵀ], [A, 0]]. Its storage is owned by the
// state's workspace; only one factor is live at a time.
type kktFactor struct {
	st *state
	w  *cone.Scaling // nil means W = I

	hmat *linalg.Matrix // Gᵀ W⁻² G (unregularized, for refinement)
	chol *linalg.Cholesky
	kkt  *linalg.Matrix // assembled [[H,Aᵀ],[A,0]] when pe > 0
	ldlt *linalg.LDLT

	// Sparse backend: schol is the sparse LDLᵀ (simplicial or supernodal)
	// of hs, which is the sparse H (pe == 0, unregularized — refinement
	// sweeps the shift out) or the sparse reduced KKT matrix (pe > 0).
	// nil on the dense backend.
	schol linalg.SparseLDLT
	hs    *linalg.SparseMatrix
}

func (st *state) factor(w *cone.Scaling) (*kktFactor, error) {
	ws := &st.ws
	f := &kktFactor{st: st, w: w, hmat: ws.hmat}
	if st.opt.DenseKKT {
		// Dense oracle: scale a copy of the dense G and assemble H densely.
		copy(ws.gw.Data, ws.gd.Data)
		if w != nil {
			w.ScaleRows(ws.gw)
		}
		ws.gw.AtAInto(ws.hmat)
	} else {
		// Sparse fast path: rewrite the values of the fixed W⁻¹G pattern,
		// then either run the fully sparse factorization pipeline or fall
		// back to sparse assembly into the dense factor (FactorDense).
		st.sv.fillScaled(w)
		if st.sparseFactor() {
			return st.factorSparse(f)
		}
		st.sv.gs.AtAInto(ws.hmat)
	}
	reg := st.opt.KKTReg * (1 + ws.hmat.NormInf())
	if st.pe == 0 {
		hreg := ws.hreg
		copy(hreg.Data, ws.hmat.Data)
		for i := 0; i < st.n; i++ {
			hreg.Add(i, i, reg)
		}
		if err := ws.chol.Factorize(hreg, reg); err != nil {
			return nil, err
		}
		f.chol = ws.chol
		return f, nil
	}
	// Assemble the quasi-definite reduced KKT matrix.
	k := ws.kkt
	k.Zero()
	nt := st.n + st.pe
	for i := 0; i < st.n; i++ {
		copy(k.Data[i*nt:i*nt+st.n], ws.hmat.Data[i*st.n:(i+1)*st.n])
		k.Add(i, i, reg)
	}
	for i := 0; i < st.pe; i++ {
		for j := 0; j < st.n; j++ {
			v := st.p.A.At(i, j)
			k.Set(st.n+i, j, v)
			k.Set(j, st.n+i, v)
		}
		k.Set(st.n+i, st.n+i, -reg)
	}
	if err := ws.ldlt.Factorize(k, reg); err != nil {
		return nil, err
	}
	f.kkt = k
	f.ldlt = ws.ldlt
	return f, nil
}

// factorSparse runs the sparse simplicial pipeline: refill H = (W⁻¹G)ᵀ(W⁻¹G)
// on its fixed pattern and refactorize numerically against the symbolic
// structure computed on first use. pe == 0 factorizes H directly with a
// static diagonal shift; pe > 0 factorizes the quasi-definite reduced KKT
// matrix with the ±reg diagonal floor, matching the dense backend's
// regularization semantics.
//
//bbvet:hotpath
func (st *state) factorSparse(f *kktFactor) (*kktFactor, error) {
	ne := st.sv.normalEq(st.opt.Cache, st.factorBackend, st.opt.FactorWorkers)
	ne.ata.Compute(st.sv.gs)
	h := ne.ata.Result
	reg := st.opt.KKTReg * (1 + h.NormInf())
	if st.pe == 0 {
		//bbvet:allow hotalloc both Factorization backends are bbvet:hotpath-checked, only the dispatch is dynamic
		if err := ne.chol.Factorize(h, reg, reg); err != nil {
			return nil, err
		}
		f.schol, f.hs = ne.chol, h
		return f, nil
	}
	ne.fillKKT(reg)
	//bbvet:allow hotalloc both Factorization backends are bbvet:hotpath-checked, only the dispatch is dynamic
	if err := ne.chol.FactorizeQuasiDef(ne.kkt, reg); err != nil {
		return nil, err
	}
	f.schol, f.hs = ne.chol, ne.kkt
	return f, nil
}

// solve computes (x, y, z) for right-hand sides (bx, by, bz) with full-space
// iterative refinement, which keeps the dual residual accurate even when the
// NT scaling is nearly singular at the end of the solve. Refinement iterates
// until the KKT residual stops improving (at most 4 passes) and returns the
// best iterate seen. The returned vectors are workspace-owned and valid only
// until the next solve call; callers that keep them must clone.
func (f *kktFactor) solve(bx, by, bz linalg.Vector) (dx, dy, dz linalg.Vector) {
	ws := &f.st.ws
	cx, cy, cz := ws.curX, ws.curY, ws.curZ
	f.solveOnce(bx, by, bz, cx, cy, cz)
	bestRes := math.Inf(1)
	for pass := 0; pass < 4; pass++ {
		f.residual(bx, by, bz, cx, cy, cz)
		res := math.Max(linalg.NormInf(ws.r1), math.Max(linalg.NormInf(ws.r2), linalg.NormInf(ws.r3)))
		if res < bestRes {
			bestRes = res
			ws.bestX.CopyFrom(cx)
			ws.bestY.CopyFrom(cy)
			ws.bestZ.CopyFrom(cz)
		} else {
			break // refinement stopped converging
		}
		if res == 0 {
			break
		}
		f.solveOnce(ws.r1, ws.r2, ws.r3, ws.corX, ws.corY, ws.corZ)
		cx.AddScaled(1, ws.corX)
		cy.AddScaled(1, ws.corY)
		cz.AddScaled(1, ws.corZ)
	}
	return ws.bestX, ws.bestY, ws.bestZ
}

// residual computes the residual of the 3x3 block KKT system at (x, y, z)
// into the workspace vectors r1, r2, r3.
func (f *kktFactor) residual(bx, by, bz, x, y, z linalg.Vector) {
	st := f.st
	ws := &st.ws
	r1 := ws.r1 // bx − Gᵀz − Aᵀy
	r1.CopyFrom(bx)
	st.sv.g.MulVecTAdd(r1, -1, z)
	if st.pe > 0 {
		st.sv.a.MulVecTAdd(r1, -1, y)
	}
	r2 := ws.r2 // by − Ax
	r2.CopyFrom(by)
	if st.pe > 0 {
		st.sv.a.MulVecAdd(r2, -1, x)
	}
	r3 := ws.r3 // bz − (Gx − W²z)
	r3.CopyFrom(bz)
	st.sv.g.MulVecAdd(r3, -1, x)
	w2z := ws.w2z
	w2z.CopyFrom(z)
	if f.w != nil {
		f.w.Apply(w2z, w2z)
		f.w.Apply(w2z, w2z)
	}
	linalg.Add(r3, r3, w2z)
}

// solveOnce performs the factored solve without refinement, writing the
// result into the caller-provided dx, dy, dz buffers.
func (f *kktFactor) solveOnce(bx, by, bz, dx, dy, dz linalg.Vector) {
	st := f.st
	ws := &st.ws
	// t = W⁻² bz.
	t := ws.t
	t.CopyFrom(bz)
	if f.w != nil {
		f.w.ApplyInv(t, t)
		f.w.ApplyInv(t, t)
	}
	// rhs = bx + Gᵀ W⁻² bz.
	rhs := ws.rhs
	rhs.CopyFrom(bx)
	st.sv.g.MulVecTAdd(rhs, 1, t)
	if faultinject.Enabled() {
		faultinject.CorruptNaN(faultinject.SiteKKTRHS, rhs)
	}
	if st.pe == 0 {
		if f.schol != nil {
			f.schol.SolveRefined(f.hs, rhs, dx)
		} else {
			f.chol.SolveRefined(f.hmat, rhs, dx)
		}
	} else {
		full := ws.full
		copy(full[:st.n], rhs)
		copy(full[st.n:], by)
		sol := ws.fsol
		if f.schol != nil {
			f.schol.SolveRefined(f.hs, full, sol)
		} else {
			f.ldlt.SolveRefined(f.kkt, full, sol)
		}
		copy(dx, sol[:st.n])
		copy(dy, sol[st.n:])
	}
	// dz = W⁻² (G dx − bz).
	st.sv.g.MulVec(dz, dx)
	dz.AddScaled(-1, bz)
	if f.w != nil {
		f.w.ApplyInv(dz, dz)
		f.w.ApplyInv(dz, dz)
	}
}

func (st *state) run() (*Solution, error) {
	p := st.p
	st.n = p.NumVars()
	st.m = p.Dims.Dim()
	if p.A != nil {
		st.pe = p.A.Rows
	}
	st.e = linalg.NewVector(st.m)
	p.Dims.Identity(st.e)
	st.bnorm = linalg.Norm2(p.B)
	st.hnorm = linalg.Norm2(p.H)
	st.cnorm = linalg.Norm2(p.C)
	st.initWorkspace()

	if err := st.initPoint(); err != nil {
		return st.failed(err)
	}

	nu := float64(p.Dims.Degree())
	sol := &Solution{Status: StatusMaxIterations}
	best := &Solution{Status: StatusMaxIterations}
	best.X = linalg.NewVector(st.n)
	best.S = linalg.NewVector(st.m)
	best.Z = linalg.NewVector(st.m)
	best.Y = linalg.NewVector(st.pe)
	bestScore := math.Inf(1)
	ws := &st.ws

	for iter := 0; iter <= st.opt.MaxIter; iter++ {
		// Cancellation is observed once per iteration: deadlines and Ctrl-C
		// surface as a prompt StatusCanceled (never as a misleading
		// StatusMaxIterations), and a completed solve is unaffected.
		if st.ctx != nil && st.ctx.Err() != nil {
			sol.Status = StatusCanceled
			return sol, nil
		}
		if faultinject.Enabled() {
			if ferr := faultinject.Hit(faultinject.SiteIPMIteration); ferr != nil {
				sol.Status = StatusNumericalError
				return sol, nil
			}
		}
		// Residuals.
		rx := ws.rx // rx = c + Gᵀz + Aᵀy
		rx.CopyFrom(p.C)
		st.sv.g.MulVecTAdd(rx, 1, st.z)
		if st.pe > 0 {
			st.sv.a.MulVecTAdd(rx, 1, st.y)
		}
		ry := ws.ry // ry = Ax − b
		if st.pe > 0 {
			st.sv.a.MulVec(ry, st.x)
			ry.AddScaled(-1, p.B)
		}
		rz := ws.rz // rz = Gx + s − h
		st.sv.g.MulVec(rz, st.x)
		linalg.Add(rz, rz, st.s)
		rz.AddScaled(-1, p.H)

		pcost := linalg.Dot(p.C, st.x)
		dcost := -linalg.Dot(p.H, st.z) - linalg.Dot(p.B, st.y)
		gap := linalg.Dot(st.s, st.z)
		relgap := gap / math.Max(1, math.Abs(pcost))
		pres := math.Max(linalg.Norm2(ry)/math.Max(1, st.bnorm), linalg.Norm2(rz)/math.Max(1, st.hnorm))
		dres := linalg.Norm2(rx) / math.Max(1, st.cnorm)

		sol.X, sol.S, sol.Z, sol.Y = st.x, st.s, st.z, st.y
		sol.PrimalObj, sol.DualObj = pcost, dcost
		sol.Gap, sol.RelGap, sol.PrimalRes, sol.DualRes = gap, relgap, pres, dres
		sol.Iterations = iter

		if st.opt.Trace {
			fmt.Fprintf(st.opt.TraceOut, "iter %2d: pcost=%+.6e dcost=%+.6e gap=%.3e pres=%.3e dres=%.3e\n",
				iter, pcost, dcost, gap, pres, dres)
		}

		if pres <= st.opt.FeasTol && dres <= st.opt.FeasTol &&
			(gap <= st.opt.AbsTol || relgap <= st.opt.RelTol) {
			sol.Status = StatusOptimal
			return sol, nil
		}

		// Farkas certificates of infeasibility.
		hzby := linalg.Dot(p.H, st.z) + linalg.Dot(p.B, st.y)
		if hzby < 0 {
			// ‖Gᵀz + Aᵀy‖ relative to the certificate value.
			gz := ws.gz
			gz.CopyFrom(rx)
			gz.AddScaled(-1, p.C)
			if linalg.Norm2(gz)/(-hzby) <= st.opt.FeasTol {
				scaleCert(st.z, -1/hzby)
				scaleCert(st.y, -1/hzby)
				sol.Status = StatusPrimalInfeasible
				return sol, nil
			}
		}
		if pcost < 0 {
			gx := ws.gx
			st.sv.g.MulVec(gx, st.x)
			linalg.Add(gx, gx, st.s)
			ax := ws.ax
			if st.pe > 0 {
				st.sv.a.MulVec(ax, st.x)
			}
			if math.Max(linalg.Norm2(gx), linalg.Norm2(ax))/(-pcost) <= st.opt.FeasTol {
				scaleCert(st.x, -1/pcost)
				scaleCert(st.s, -1/pcost)
				sol.Status = StatusDualInfeasible
				return sol, nil
			}
		}
		// Track the best iterate seen; near machine precision the iterates
		// can deteriorate after the gap bottoms out, and the best point is
		// then the one to report.
		score := math.Max(math.Max(pres, dres), relgap)
		if score < bestScore {
			bestScore = score
			bX, bS, bZ, bY := best.X, best.S, best.Z, best.Y
			*best = *sol
			best.X, best.S, best.Z, best.Y = bX, bS, bZ, bY
			best.X.CopyFrom(sol.X)
			best.S.CopyFrom(sol.S)
			best.Z.CopyFrom(sol.Z)
			best.Y.CopyFrom(sol.Y)
		} else if bestScore < 1e-4 && score > 1e4*bestScore {
			// Endgame breakdown after convergence effectively finished:
			// return the best iterate instead of the deteriorated one.
			*sol = *best
			sol.Status = acceptReduced(best)
			return sol, nil
		}

		if iter == st.opt.MaxIter {
			*sol = *best
			sol.Status = acceptReduced(best)
			return sol, nil
		}

		// An unshifted warm point got its free convergence check above; past
		// it, shift s and z to the interior-margin floor before the first NT
		// scaling, which is singular on the cone boundary a converged
		// neighbor iterate sits on. The shift moves s and z, so the
		// residuals and gap that feed the step are recomputed.
		if st.warmActive && iter == 0 {
			st.shiftWarm(st.s)
			st.shiftWarm(st.z)
			rx.CopyFrom(p.C)
			st.sv.g.MulVecTAdd(rx, 1, st.z)
			if st.pe > 0 {
				st.sv.a.MulVecTAdd(rx, 1, st.y)
			}
			st.sv.g.MulVec(rz, st.x)
			linalg.Add(rz, rz, st.s)
			rz.AddScaled(-1, p.H)
			gap = linalg.Dot(st.s, st.z)
		}

		// NT scaling and KKT factorization.
		w, err := cone.NewScaling(p.Dims, st.s, st.z)
		if err != nil {
			sol.Status = StatusNumericalError
			return sol, nil
		}
		lambda := w.Lambda()
		f, err := st.factor(w)
		if err != nil {
			sol.Status = StatusNumericalError
			return sol, nil
		}

		mu := gap / nu

		// Affine (predictor) direction: dc = −λ∘λ, so u = λ\dc = −λ.
		u := ws.uaff
		u.CopyFrom(lambda)
		u.Scale(-1)
		_, _, dza, dsa := st.newton(f, w, rx, ry, rz, u)

		alphaAff := math.Min(1, math.Min(
			p.Dims.StepToBoundary(st.s, dsa),
			p.Dims.StepToBoundary(st.z, dza)))
		gapAff := affGap(st.s, dsa, st.z, dza, alphaAff)
		sigma := math.Pow(math.Max(0, gapAff/gap), 3)
		if sigma > 1 {
			sigma = 1
		}

		// Combined (corrector) direction:
		// dc = σµe − λ∘λ − (W⁻¹ds_a)∘(W dz_a).
		wds := ws.wds
		w.ApplyInv(wds, dsa)
		wdz := ws.wdz
		w.Apply(wdz, dza)
		corr := ws.corr
		p.Dims.Product(corr, wds, wdz)
		dc := ws.dc
		p.Dims.Product(dc, lambda, lambda)
		dc.Scale(-1)
		dc.AddScaled(-1, corr)
		dc.AddScaled(sigma*mu, st.e)
		p.Dims.Div(u, lambda, dc)
		dx, dy, dz, ds := st.newton(f, w, rx, ry, rz, u)

		alpha := math.Min(1, st.opt.StepFrac*math.Min(
			p.Dims.StepToBoundary(st.s, ds),
			p.Dims.StepToBoundary(st.z, dz)))

		// Take the step, backing off if rounding pushed an iterate onto the
		// boundary. ns/nz double-buffer against st.s/st.z: on acceptance the
		// slices swap roles, so each try rebuilds the candidate from the
		// untouched current iterate.
		ns, nz := ws.ns, ws.nz
		for tries := 0; ; tries++ {
			ns.CopyFrom(st.s)
			ns.AddScaled(alpha, ds)
			nz.CopyFrom(st.z)
			nz.AddScaled(alpha, dz)
			if p.Dims.Interior(ns) && p.Dims.Interior(nz) {
				ws.ns, ws.nz = st.s, st.z
				st.s, st.z = ns, nz
				st.x.AddScaled(alpha, dx)
				st.y.AddScaled(alpha, dy)
				break
			}
			if tries >= 30 {
				sol.Status = StatusNumericalError
				return sol, nil
			}
			alpha *= 0.5
		}
	}
	return sol, nil
}

// newton solves one Newton system for the given residuals and scaled
// complementarity term u = λ\dc, returning (dx, dy, dz, ds). The returned
// vectors are workspace-owned; they stay valid until the next newton or
// kktFactor.solve call.
func (st *state) newton(f *kktFactor, w *cone.Scaling, rx, ry, rz, u linalg.Vector) (dx, dy, dz, ds linalg.Vector) {
	ws := &st.ws
	bx := ws.nbx
	bx.CopyFrom(rx)
	bx.Scale(-1)
	by := ws.nby
	by.CopyFrom(ry)
	by.Scale(-1)
	// bz = −rz − W u.
	wu := ws.nwu
	w.Apply(wu, u)
	bz := ws.nbz
	bz.CopyFrom(rz)
	bz.Scale(-1)
	bz.AddScaled(-1, wu)
	dx, dy, dz = f.solve(bx, by, bz)
	// ds = W (u − W dz).
	t := ws.nt
	w.Apply(t, dz)
	linalg.Sub(t, u, t)
	ds = ws.nds
	w.Apply(ds, t)
	return dx, dy, dz, ds
}

// acceptReduced decides the status of a solve that could not reach the full
// tolerances: if the best iterate meets the reduced tolerances (1e-4 on
// feasibility, 5e-5 on the relative gap — the same convention ECOS uses for
// its "close to optimal" acceptance), it is still reported optimal; the
// achieved residuals remain available in the Solution for callers that need
// stricter guarantees.
func acceptReduced(best *Solution) Status {
	const feasInacc, gapInacc = 1e-4, 5e-5
	if best.X != nil && best.PrimalRes <= feasInacc && best.DualRes <= feasInacc &&
		(best.Gap <= gapInacc || best.RelGap <= gapInacc) {
		return StatusOptimal
	}
	return StatusMaxIterations
}

// affGap returns (s+αds)ᵀ(z+αdz).
func affGap(s, ds, z, dz linalg.Vector, alpha float64) float64 {
	var g float64
	for i := range s {
		g += (s[i] + alpha*ds[i]) * (z[i] + alpha*dz[i])
	}
	return g
}

func scaleCert(v linalg.Vector, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// warmMarginFrac is the relative interior-margin floor warm iterates are
// shifted to. A converged neighbor's s and z sit essentially on the cone
// boundary, where the NT scaling is singular; shifting along the cone
// identity to a small but safe margin (Mehrotra-style centering of the
// initial point) keeps the first scaling well conditioned while staying
// close enough to the neighbor's solution that the predictor-corrector
// needs only a handful of iterations to re-converge.
const warmMarginFrac = 1e-3

// initPoint installs the caller's warm start when one is usable, otherwise
// computes the CVXOPT-style least-squares starting point, shifted into the
// interior of the cone.
func (st *state) initPoint() error {
	if st.warmPoint() {
		return nil
	}
	return st.coldPoint()
}

// warmPoint moves the scaled warm start into the iterate slots. The primal
// slack is recomputed against this problem's h (s = h − Gx) whenever the
// result stays strictly interior, so a sweep step that only moved a bound
// starts with a zero primal residual. When the raw pair (s, z) is strictly
// interior it is installed unshifted and warmActive is set: the run loop
// gives it one free convergence check and only shifts to the margin floor
// if it actually has to iterate. Otherwise the pair is shifted here, and a
// pair that still fails the interior check (e.g. non-finite) reports false,
// leaving the cold start to run.
func (st *state) warmPoint() bool {
	w := st.warm
	if w == nil {
		return false
	}
	s := linalg.NewVector(st.m)
	st.sv.g.MulVec(s, w.X)
	s.Scale(-1)
	linalg.Add(s, s, st.p.H)
	if st.p.Dims.Interior(s) {
		w.S = s
	}
	if st.p.Dims.Interior(w.S) && st.p.Dims.Interior(w.Z) {
		st.x, st.y, st.s, st.z = w.X, w.Y, w.S, w.Z
		st.warmActive = true
		return true
	}
	st.shiftWarm(w.S)
	st.shiftWarm(w.Z)
	if !st.p.Dims.Interior(w.S) || !st.p.Dims.Interior(w.Z) {
		return false
	}
	st.x, st.y, st.s, st.z = w.X, w.Y, w.S, w.Z
	return true
}

// shiftWarm raises v's interior margin to the warm floor by moving along
// the cone identity, scaled to the iterate's own magnitude.
func (st *state) shiftWarm(v linalg.Vector) {
	floor := warmMarginFrac * (1 + linalg.NormInf(v))
	if th := st.p.Dims.InteriorMargin(v); th < floor {
		v.AddScaled(floor-th, st.e)
	}
}

// coldPoint computes the CVXOPT-style least-squares starting point, shifted
// into the interior of the cone.
func (st *state) coldPoint() error {
	p := st.p
	f, err := st.factor(nil) // W = I
	if err != nil {
		return fmt.Errorf("socp: initial factorization failed: %w", err)
	}
	// Primal: minimize ‖Gx − h‖ s.t. Ax = b; s = h − Gx, shifted inward.
	zero := linalg.NewVector(st.n)
	x, _, ztilde := f.solve(zero, p.B, p.H)
	st.x = x.Clone() // the solve results are workspace-backed
	st.s = ztilde.Clone()
	st.s.Scale(-1) // s = h − Gx = −z̃
	if th := p.Dims.InteriorMargin(st.s); th <= 0 {
		st.s.AddScaled(1-th, st.e)
	}
	// Dual: minimize ‖z‖ s.t. Gᵀz + Aᵀy = −c; shifted inward.
	negc := p.C.Clone()
	negc.Scale(-1)
	_, y, z := f.solve(negc, linalg.NewVector(st.pe), linalg.NewVector(st.m))
	st.y = y.Clone()
	st.z = z.Clone()
	if th := p.Dims.InteriorMargin(st.z); th <= 0 {
		st.z.AddScaled(1-th, st.e)
	}
	return nil
}

func (st *state) failed(err error) (*Solution, error) {
	return &Solution{Status: StatusNumericalError}, err
}
