package socp

import (
	"fmt"
	"sort"

	"repro/internal/cone"
	"repro/internal/linalg"
)

// Term is one coefficient·variable entry of an affine expression.
type Term struct {
	Var  int
	Coef float64
}

// Affine is an affine expression Const + Σ Terms[i].Coef · x[Terms[i].Var].
type Affine struct {
	Const float64
	Terms []Term
}

// Expr starts an affine expression with the given constant.
func Expr(c float64) Affine { return Affine{Const: c} }

// Plus returns a + coef·x[v] as a new expression.
func (a Affine) Plus(coef float64, v int) Affine {
	terms := make([]Term, len(a.Terms), len(a.Terms)+1)
	copy(terms, a.Terms)
	return Affine{Const: a.Const, Terms: append(terms, Term{Var: v, Coef: coef})}
}

// PlusConst returns a + c as a new expression.
func (a Affine) PlusConst(c float64) Affine {
	return Affine{Const: a.Const + c, Terms: a.Terms}
}

// Minus returns a − b as a new expression.
func (a Affine) Minus(b Affine) Affine {
	terms := make([]Term, len(a.Terms), len(a.Terms)+len(b.Terms))
	copy(terms, a.Terms)
	for _, t := range b.Terms {
		terms = append(terms, Term{Var: t.Var, Coef: -t.Coef})
	}
	return Affine{Const: a.Const - b.Const, Terms: terms}
}

// Builder incrementally assembles a conic program in the natural
// "affine expression ∈ cone" form and converts it to the solver's
// (c, G, h, dims) representation. Orthant constraints are emitted first (in
// insertion order), followed by the SOC blocks (in insertion order), matching
// the layout required by cone.Dims.
type Builder struct {
	names []string
	obj   []float64

	lin    []Affine   // each must be ≥ 0
	soc    [][]Affine // each block ∈ SOC of its length
	eqRows []Affine   // each must be = 0 (optional)
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// AddVar introduces a new (free) variable and returns its index. The name is
// only used for diagnostics.
func (b *Builder) AddVar(name string) int {
	b.names = append(b.names, name)
	b.obj = append(b.obj, 0)
	return len(b.names) - 1
}

// NumVars returns the number of variables added so far.
func (b *Builder) NumVars() int { return len(b.names) }

// VarName returns the diagnostic name of variable v.
func (b *Builder) VarName(v int) string { return b.names[v] }

// SetObjective adds coef to the objective coefficient of variable v (the
// objective is minimized).
func (b *Builder) SetObjective(v int, coef float64) { b.obj[v] += coef }

// AddNonNeg adds the constraint a ≥ 0 and returns the orthant row index
// (which equals the row index in the final cone vector, since orthant rows
// come first).
func (b *Builder) AddNonNeg(a Affine) int {
	b.lin = append(b.lin, a)
	return len(b.lin) - 1
}

// AddLE adds lhs ≤ rhs for affine expressions, as rhs − lhs ≥ 0, returning
// the orthant row index.
func (b *Builder) AddLE(lhs, rhs Affine) int {
	d := Affine{Const: rhs.Const - lhs.Const}
	d.Terms = append(d.Terms, rhs.Terms...)
	for _, t := range lhs.Terms {
		d.Terms = append(d.Terms, Term{Var: t.Var, Coef: -t.Coef})
	}
	return b.AddNonNeg(d)
}

// AddSOC adds the constraint (f₀, f₁, …) ∈ SOC, i.e. f₀ ≥ ‖(f₁, …)‖₂.
// It returns the block index among SOC constraints.
func (b *Builder) AddSOC(fs ...Affine) int {
	if len(fs) < 2 {
		panic("socp: SOC block needs at least 2 rows")
	}
	block := make([]Affine, len(fs))
	copy(block, fs)
	b.soc = append(b.soc, block)
	return len(b.soc) - 1
}

// AddProductGE adds the hyperbolic constraint x[u]·x[v] ≥ k² (with the
// implied x[u], x[v] ≥ 0) via its exact second-order-cone representation
// ‖(2k, x[u]−x[v])‖ ≤ x[u]+x[v]. This is the paper's Constraint (8) when
// k = 1 (λ·β′ ≥ 1). It returns the SOC block index.
func (b *Builder) AddProductGE(u, v int, k float64) int {
	return b.AddSOC(
		Expr(0).Plus(1, u).Plus(1, v),  // u + v
		Expr(2*k),                      // 2k
		Expr(0).Plus(1, u).Plus(-1, v), // u − v
	)
}

// AddEq adds the equality constraint a = 0.
func (b *Builder) AddEq(a Affine) { b.eqRows = append(b.eqRows, a) }

// Build converts the accumulated constraints into a Problem. The constraint
// matrix is always emitted in CSR form (Problem.GSparse), because each
// Algorithm 1 row touches only two or three variables. The CSR carries
// exactly the pattern and values NewSparseFromDense gives for the dense
// matrix of the same rows — duplicate terms accumulated, exact zeros
// dropped — so a caller who densifies it solves bit-identically.
func (b *Builder) Build() (*Problem, error) {
	n := len(b.names)
	dims := cone.Dims{NonNeg: len(b.lin)}
	for _, blk := range b.soc {
		dims.SOC = append(dims.SOC, len(blk))
	}
	m := dims.Dim()
	p := &Problem{
		C:    linalg.Vector(b.obj).Clone(),
		H:    linalg.NewVector(m),
		Dims: dims,
	}
	gs, err := b.buildSparseG(n, m, p.H)
	if err != nil {
		return nil, err
	}
	p.GSparse = gs
	if len(b.eqRows) > 0 {
		a := linalg.NewMatrix(len(b.eqRows), n)
		bb := linalg.NewVector(len(b.eqRows))
		for i, row := range b.eqRows {
			// a(x) = 0 means Σ coef·x = −Const.
			bb[i] = -row.Const
			for _, t := range row.Terms {
				if t.Var < 0 || t.Var >= n {
					return nil, fmt.Errorf("socp: equality references unknown variable %d", t.Var)
				}
				a.Add(i, t.Var, t.Coef)
			}
		}
		p.A = a
		p.B = bb
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// buildSparseG assembles the constraint rows into CSR form through a dense
// scratch row, using the convention s_r = h_r − G_r·x = a(x): terms
// accumulate into the scratch (duplicates sum), then the touched columns are
// emitted in ascending order with exact zeros dropped — the normalization
// NewSparseFromDense applies, entry for entry.
func (b *Builder) buildSparseG(n, m int, h linalg.Vector) (*linalg.SparseMatrix, error) {
	gs := &linalg.SparseMatrix{Rows: m, Cols: n, RowPtr: make([]int, m+1)}
	scratch := make(linalg.Vector, n)
	touched := make([]int, 0, 16)
	r := 0
	emit := func(a Affine) error {
		h[r] = a.Const
		touched = touched[:0]
		for _, t := range a.Terms {
			if t.Var < 0 || t.Var >= n {
				return fmt.Errorf("socp: term references unknown variable %d", t.Var)
			}
			touched = append(touched, t.Var)
			scratch[t.Var] -= t.Coef
		}
		sort.Ints(touched)
		for k, j := range touched {
			if k > 0 && touched[k-1] == j {
				continue // duplicate term, already emitted with the sum
			}
			if v := scratch[j]; v != 0 {
				gs.ColIdx = append(gs.ColIdx, j)
				gs.Val = append(gs.Val, v)
			}
			scratch[j] = 0
		}
		gs.RowPtr[r+1] = len(gs.ColIdx)
		r++
		return nil
	}
	for _, a := range b.lin {
		if err := emit(a); err != nil {
			return nil, err
		}
	}
	for _, blk := range b.soc {
		for _, a := range blk {
			if err := emit(a); err != nil {
				return nil, err
			}
		}
	}
	return gs, nil
}

// Eval evaluates the affine expression at x.
func (a Affine) Eval(x linalg.Vector) float64 {
	v := a.Const
	for _, t := range a.Terms {
		v += t.Coef * x[t.Var]
	}
	return v
}
