package svm

import (
	"errors"
	"math"
)

// solver runs SMO on the ε-SVR dual in LIBSVM's doubled formulation:
//
//	min ½ aᵀQ̄a + pᵀa   s.t.  yᵀa = 0,  0 ≤ a_t ≤ C
//
// with 2l variables: a_t for t < l are the "up" multipliers (y_t = +1,
// p_t = ε − z_t) and a_t for t ≥ l the "down" multipliers (y_t = −1,
// p_t = ε + z_t), where z is the regression target. Q̄_ts = y_t·y_s·K(t%l, s%l).
// The final coefficient of sample i is β_i = a_i − a_{i+l}.
//
// The hot loops walk the two halves separately, so y_t is a constant sign
// in each loop: −y_t·G_t is −G_t on the up half and G_t on the down half.
// Folding a sign into a product is exact, so the split changes no bit, and
// each scan visits t in increasing order, so ties go to the first index.
type solver struct {
	l     int // number of training samples
	n     int // 2l variables
	c     float64
	eps   float64 // ε-tube half width
	tol   float64 // KKT violation tolerance
	maxIt int
	rule  SelectionRule

	z []float64

	alpha []float64
	grad  []float64 // G_t = (Q̄a)_t + p_t

	cache *rowCache
	diag  []float64 // K(k, k) per sample: Q̄_tt for t = k and t = k+l
}

// tau is LIBSVM's lower bound for the second-order coefficient.
const tau = 1e-12

// SelectionRule chooses the SMO working-set selection strategy.
type SelectionRule int

// Selection rules.
const (
	// MaxViolatingPair is the classic first-order rule (Keerthi et al.):
	// the pair with the largest KKT violation.
	MaxViolatingPair SelectionRule = iota
	// SecondOrder is LIBSVM's WSS2 (Fan, Chen & Lin 2005): i maximizes the
	// violation, j maximizes the guaranteed objective decrease. Usually
	// converges in substantially fewer iterations.
	SecondOrder
)

func newSolver(x [][]float64, z []float64, k Kernel, c, eps, tol float64, maxIt int, rule SelectionRule) *solver {
	l := len(x)
	s := &solver{
		l: l, n: 2 * l,
		c: c, eps: eps, tol: tol, maxIt: maxIt,
		rule:  rule,
		z:     z,
		alpha: make([]float64, 2*l),
		grad:  make([]float64, 2*l),
		cache: newRowCache(l, k, x),
		diag:  make([]float64, l),
	}
	for t := 0; t < s.n; t++ {
		s.grad[t] = s.p(t) // alpha starts at zero, so G = p
	}
	for i, xi := range x {
		s.diag[i] = k.Eval(xi, xi) // the bits row(i)[i] would hold
	}
	return s
}

// y returns the constraint sign of variable t.
func (s *solver) y(t int) float64 {
	if t < s.l {
		return 1
	}
	return -1
}

// p returns the linear term of variable t.
func (s *solver) p(t int) float64 {
	if t < s.l {
		return s.eps - s.z[t]
	}
	return s.eps + s.z[t-s.l]
}

// violators is the first-order scan: i = argmax_{t ∈ I_up} −y_t·G_t and
// j = argmin_{t ∈ I_low} −y_t·G_t, with gmax and gmin the two values.
type violators struct {
	gmax, gmin float64
	i, j       int
}

func noViolators() violators {
	return violators{gmax: math.Inf(-1), gmin: math.Inf(1), i: -1, j: -1}
}

// up folds the up-half variable k (y = +1, so −y·G = −g) with multiplier a
// into the scan: it is in I_up while a < C and in I_low while a > 0.
func (v *violators) up(k int, g, a, c float64) {
	if a < c && -g > v.gmax {
		v.gmax, v.i = -g, k
	}
	if a > 0 && -g < v.gmin {
		v.gmin, v.j = -g, k
	}
}

// down folds the down-half variable t (y = −1, so −y·G = g) into the scan:
// it is in I_up while a > 0 and in I_low while a < C.
func (v *violators) down(t int, g, a, c float64) {
	if a > 0 && g > v.gmax {
		v.gmax, v.i = g, t
	}
	if a < c && g < v.gmin {
		v.gmin, v.j = g, t
	}
}

// scan runs the first-order scan over the current gradient.
func (s *solver) scan() violators {
	v := noViolators()
	l := s.l
	up, down := s.alpha[:l], s.alpha[l:]
	for k, g := range s.grad[:l] {
		v.up(k, g, up[k], s.c)
	}
	for k, g := range s.grad[l:] {
		v.down(l+k, g, down[k], s.c)
	}
	return v
}

// secondOrder is WSS2's choice of j for the fixed i of v: the t in I_low
// maximizing b²/a, b = gmax + y_t·G_t > 0, a = Q̄_ii + Q̄_tt − 2·y_i·y_t·K_it.
// It falls back to the first-order j when no t has b > 0.
func (s *solver) secondOrder(v violators) int {
	l := s.l
	ri := s.cache.row(v.i % l)
	qi := s.diag[v.i%l]
	s2 := 2.0 // 2·y_i
	if v.i >= l {
		s2 = -2
	}
	best, bestJ := math.Inf(-1), v.j
	up, down := s.alpha[:l], s.alpha[l:]
	for k, g := range s.grad[:l] { // y_t = +1: in I_low while a > 0
		if b := v.gmax + g; up[k] > 0 && b > 0 {
			if gain := wss2Gain(b, qi+s.diag[k]-s2*ri[k]); gain > best {
				best, bestJ = gain, k
			}
		}
	}
	for k, g := range s.grad[l:] { // y_t = −1: in I_low while a < C
		if b := v.gmax - g; down[k] < s.c && b > 0 {
			if gain := wss2Gain(b, qi+s.diag[k]+s2*ri[k]); gain > best {
				best, bestJ = gain, l+k
			}
		}
	}
	return bestJ
}

// wss2Gain is the guaranteed objective decrease b²/a, with a floored at tau.
func wss2Gain(b, a float64) float64 {
	if a <= 0 {
		a = tau
	}
	return b * b / a
}

// solve runs SMO to convergence. It returns the per-sample coefficients
// β_i = a_i − a_{i+l}, the offset rho, and the iteration count.
func (s *solver) solve() (beta []float64, rho float64, iters int, err error) {
	v := s.scan()
	for iters = 0; iters < s.maxIt; iters++ {
		if v.i < 0 || v.j < 0 || v.gmax-v.gmin < s.tol {
			return s.finish(iters)
		}
		j := v.j
		if s.rule == SecondOrder {
			j = s.secondOrder(v)
		}
		v = s.update(v, v.i, j)
	}
	return nil, 0, iters, errors.New("svm: SMO iteration limit reached without convergence")
}

// update optimizes the pair (i, j) analytically, refreshes the gradient
// and returns the next first-order scan, made in the same pass. A step
// that moves neither multiplier changes nothing, so prev still holds.
func (s *solver) update(prev violators, i, j int) violators {
	l := s.l
	ri := s.cache.row(i % l)
	rj := s.cache.row(j % l)
	oldAi, oldAj := s.alpha[i], s.alpha[j]

	// LIBSVM's Q̄_ii + Q̄_jj − 2·Q̄_ij for a same-sign pair and + 2·Q̄_ij for
	// an opposite-sign one; with Q̄_ij = y_i·y_j·K_ij both are this.
	quad := s.diag[i%l] + s.diag[j%l] - 2*ri[j%l]
	if quad <= 0 {
		quad = tau
	}
	if (i < l) != (j < l) {
		delta := (-s.grad[i] - s.grad[j]) / quad
		diff := s.alpha[i] - s.alpha[j]
		s.alpha[i] += delta
		s.alpha[j] += delta
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
		}
		if diff > 0 {
			if s.alpha[i] > s.c {
				s.alpha[i] = s.c
				s.alpha[j] = s.c - diff
			}
		} else {
			if s.alpha[j] > s.c {
				s.alpha[j] = s.c
				s.alpha[i] = s.c + diff
			}
		}
	} else {
		delta := (s.grad[i] - s.grad[j]) / quad
		sum := s.alpha[i] + s.alpha[j]
		s.alpha[i] -= delta
		s.alpha[j] += delta
		if sum > s.c {
			if s.alpha[i] > s.c {
				s.alpha[i] = s.c
				s.alpha[j] = sum - s.c
			}
		} else {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = sum
			}
		}
		if sum > s.c {
			if s.alpha[j] > s.c {
				s.alpha[j] = s.c
				s.alpha[i] = sum - s.c
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = sum
			}
		}
	}

	dAi := s.alpha[i] - oldAi
	dAj := s.alpha[j] - oldAj
	if dAi == 0 && dAj == 0 {
		return prev
	}
	// G_t += Q̄_ti·ΔA_i + Q̄_tj·ΔA_j = ±(K_ti·y_i·ΔA_i + K_tj·y_j·ΔA_j), the
	// two products rounded on their own (explicit conversions: no fused
	// multiply-add) and added in that order.
	ci, cj := s.y(i)*dAi, s.y(j)*dAj
	v := noViolators()
	up, down := s.alpha[:l], s.alpha[l:]
	gu, gd := s.grad[:l], s.grad[l:]
	for k := range gu {
		gu[k] = float64(gu[k]+float64(ri[k]*ci)) + float64(rj[k]*cj)
		v.up(k, gu[k], up[k], s.c)
	}
	for k := range gd {
		gd[k] = float64(gd[k]-float64(ri[k]*ci)) - float64(rj[k]*cj)
		v.down(l+k, gd[k], down[k], s.c)
	}
	return v
}

// finish computes β and rho from the converged state.
func (s *solver) finish(iters int) (beta []float64, rho float64, its int, err error) {
	beta = make([]float64, s.l)
	for i := 0; i < s.l; i++ {
		beta[i] = s.alpha[i] - s.alpha[i+s.l]
	}

	// LIBSVM calculate_rho on the doubled problem.
	ub := math.Inf(1)
	lb := math.Inf(-1)
	var sumFree float64
	nFree := 0
	for t := 0; t < s.n; t++ {
		yg := s.y(t) * s.grad[t]
		switch {
		case s.alpha[t] >= s.c:
			if s.y(t) < 0 {
				ub = math.Min(ub, yg)
			} else {
				lb = math.Max(lb, yg)
			}
		case s.alpha[t] <= 0:
			if s.y(t) > 0 {
				ub = math.Min(ub, yg)
			} else {
				lb = math.Max(lb, yg)
			}
		default:
			nFree++
			sumFree += yg
		}
	}
	if nFree > 0 {
		rho = sumFree / float64(nFree)
	} else {
		rho = (ub + lb) / 2
	}
	return beta, rho, iters, nil
}

// rowCache holds kernel rows K(i, ·) over the l base samples in a slice
// indexed by sample, nil until first asked for. At most maxRows rows stay
// resident, the oldest computed dropped first (FIFO); the cap bites only
// past l = 4096, so the dataset sizes in this repository compute each row
// once. A dropped row is recomputed on demand to the same bits.
type rowCache struct {
	k       Kernel
	x       [][]float64
	rows    [][]float64
	order   []int // resident rows, oldest first
	maxRows int
}

func newRowCache(l int, k Kernel, x [][]float64) *rowCache {
	maxRows := l
	const maxCachedValues = 16 << 20 // ~128 MB of float64s
	if l > 0 && l*l > maxCachedValues {
		maxRows = maxCachedValues / l
		if maxRows < 2 {
			maxRows = 2
		}
	}
	return &rowCache{k: k, x: x, rows: make([][]float64, l), maxRows: maxRows}
}

func (c *rowCache) row(i int) []float64 {
	if r := c.rows[i]; r != nil {
		return r
	}
	r := make([]float64, len(c.x))
	xi := c.x[i]
	for j, xj := range c.x {
		r[j] = c.k.Eval(xi, xj)
	}
	if len(c.order) >= c.maxRows {
		c.rows[c.order[0]] = nil
		c.order = c.order[1:]
	}
	c.rows[i] = r
	c.order = append(c.order, i)
	return r
}
