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
// An iteration makes two O(l) passes: WSS2's scan for j (wss2) and the
// gradient update fused with the next first-order scan (step). Each walks
// k < l once and handles the up variable k and the down variable l+k
// together: they share K(i,k), K(j,k) and K(k,k), and step computes the
// products a = K(i,k)·c_i and b = K(j,k)·c_j once for G_k = (G_k + a) + b
// and G_{l+k} = (G_{l+k} − a) − b. y_t is a constant sign in each half, so
// −y_t·G_t is −G_k on the up half and G_{l+k} on the down half; folding a
// sign in is exact. Every argmax and argmin keeps one pick per half and
// visits k in increasing order with strict compares, so it holds the first
// occurrence; merging the halves, the up pick wins ties, as its index is
// the lower. The picks are those of one scan over t = 0 … 2l−1.
//
// Where useAVX holds, both passes run four k at a time in AVX2
// (smo_amd64.s) and the scalar loop takes the last l mod 4; under noasm it
// takes them all. The kernels give the scalar loop's bits: a pick per lane
// reduced to the lowest index among equal values, no FMA, and b²/a by a
// true division — a reciprocal, or comparing b² against best·a, rounds
// differently and would change which j wins.
//
// Where useAVX512 also holds, both run eight k at a time and the scalar
// loop takes the last l mod 8. stepAVX512 is stepAVX's arithmetic with
// opmask picks, and reduces its lanes in registers: the extreme value,
// then the lowest index among the lanes equal to it, with the value read
// from that lane, so a −0 that wins stays −0. wss2AVX512 divides by
// nothing. Its first pass writes, for each candidate (the variables
// wss2Scalar would consider), the estimate e = b²·r with r = VRCP14PD(a),
// a unfloored, into the solver's est buffer, and keeps each half's
// maximum M over the trusted estimates: those where r and e both lie in
// [2^-512, 2^512). Any other candidate's estimate is NaN, which covers
// a <= 0, subnormal or huge a, and b² that overflows or underflows. Its
// second pass lists the survivors, in increasing k: the NaN lanes and the
// lanes with e >= T = fl(M·(1 − 2^-10)) (T = +Inf for a half with no
// trusted candidate). Only they get the exact gain, in wss2Scalar's
// arithmetic (wss2Up, wss2Down), folded in index order with strict
// compares.
//
// The survivors hold every lane the scalar loop could pick. Let Q = b²/a
// exactly and g = fl(Q), the scalar gain, and let w be any lane with the
// largest g, g*. If w is untrusted it survives. Otherwise r = (1/a)(1+δ)
// with |δ| < 2^-14 (VRCP14PD's bound for a normal a and 1/a, which the
// range ensures) and e = b²·r rounded, normal, so
// Q(1−2^-14)(1−2^-53) <= e <= Q(1+2^-14)(1+2^-53), and Q is normal. Let z
// be the trusted lane with the largest Q. Rounding is monotone, so
// g_z >= g_w = g*, so g_z = g*: Q_z and Q_w round to the same normal
// number and Q_z <= Q_w(1+2^-52). Then
// T <= Q_w(1+2^-52)(1+2^-14)(1+2^-53)(1−2^-10)(1+2^-53)
// < Q_w(1−2^-14)(1−2^-53) <= e_w. The margin 2^-10 is eight times the
// 2^-13 the proof needs. Lanes that survive without holding g* only lose
// to it.
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
	est   []float64 // wss2AVX512's gain estimates, up half then down half
	surv  []int     // and the variables that survive its filter
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

// cacheSolver sets up SMO over the samples whose kernel rows cache serves,
// with targets z.
func cacheSolver(cache *rowCache, z []float64, c, eps, tol float64, maxIt int, rule SelectionRule) *solver {
	l := len(z)
	s := &solver{
		l: l, n: 2 * l,
		c: c, eps: eps, tol: tol, maxIt: maxIt,
		rule:  rule,
		z:     z,
		alpha: make([]float64, 2*l),
		grad:  make([]float64, 2*l),
		cache: cache,
		diag:  make([]float64, l),
	}
	for t := 0; t < s.n; t++ {
		s.grad[t] = s.p(t) // alpha starts at zero, so G = p
	}
	for i := range s.diag {
		s.diag[i] = cache.self(i) // the bits row(i)[i] would hold
	}
	return s
}

// sample returns the sample of variable t, t mod l without a division.
func (s *solver) sample(t int) int {
	if t >= s.l {
		return t - s.l
	}
	return t
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

// down folds the down-half variable l+k (y = −1, so −y·G = g) into the
// scan under index k: it is in I_up while a > 0 and in I_low while a < C.
func (v *violators) down(k int, g, a, c float64) {
	if a > 0 && g > v.gmax {
		v.gmax, v.i = g, k
	}
	if a < c && g < v.gmin {
		v.gmin, v.j = g, k
	}
}

// merge joins the up-half scan u and the down-half scan d, both indexed by
// k < l, into the scan over all 2l variables: d's indices move up by l, and
// on equal values u wins, because its index is the lower.
func merge(u, d violators, l int) violators {
	if d.gmax > u.gmax {
		u.gmax, u.i = d.gmax, l+d.i
	}
	if d.gmin < u.gmin {
		u.gmin, u.j = d.gmin, l+d.j
	}
	return u
}

// scan runs the first-order scan over the current gradient.
func (s *solver) scan() violators {
	u, d := noViolators(), noViolators()
	l := s.l
	for k := range l {
		u.up(k, s.grad[k], s.alpha[k], s.c)
		d.down(k, s.grad[l+k], s.alpha[l+k], s.c)
	}
	return merge(u, d, l)
}

// pick is a running argmax or argmin: the extreme value seen and the index
// of its first occurrence, -1 before any.
type pick struct {
	v float64
	k int
}

// max folds the value v at index k into the argmax p.
func (p *pick) max(v float64, k int) {
	if v > p.v {
		p.v, p.k = v, k
	}
}

// lanes is what a vector pass leaves of one pick: lane L has seen the
// k ≡ L (mod 4) in increasing order, with strict compares.
type lanes struct {
	v [4]float64
	k [4]int
}

// max reduces the lanes to the pick the scalar loop would have made: the
// largest value and, between equal values, the lowest index. No lane holds
// NaN, which never wins a strict compare.
func (t *lanes) max() pick {
	p := pick{t.v[0], t.k[0]}
	for L := 1; L < 4; L++ {
		if t.v[L] > p.v || t.v[L] == p.v && t.k[L] < p.k {
			p = pick{t.v[L], t.k[L]}
		}
	}
	return p
}

// min is max for the smallest value.
func (t *lanes) min() pick {
	p := pick{t.v[0], t.k[0]}
	for L := 1; L < 4; L++ {
		if t.v[L] < p.v || t.v[L] == p.v && t.k[L] < p.k {
			p = pick{t.v[L], t.k[L]}
		}
	}
	return p
}

// wss2Pass is what WSS2's scan for j needs of the chosen i: its kernel row,
// Q̄_ii, 2·y_i and the violation gmax.
type wss2Pass struct {
	ri           []float64
	qi, s2, gmax float64
}

// secondOrder is WSS2's choice of j for the fixed i of v: the t in I_low
// maximizing b²/a, b = gmax + y_t·G_t > 0, a = Q̄_ii + Q̄_tt − 2·y_i·y_t·K_it.
// It falls back to the first-order j when no t has b > 0.
func (s *solver) secondOrder(v violators) int {
	l, i := s.l, s.sample(v.i)
	p := wss2Pass{ri: s.cache.row(i), qi: s.diag[i], s2: 2, gmax: v.gmax}
	if v.i >= l {
		p.s2 = -2
	}
	up, dn := s.wss2(p)
	switch {
	case dn.v > up.v: // the up pick wins ties: its index is the lower
		return l + dn.k
	case up.k >= 0:
		return up.k
	}
	return v.j
}

// wss2 scans the up and down halves for WSS2's j in one pass over k < l,
// eight k at a time in AVX-512 or four in AVX2 where they run. At eight,
// wss2AVX512 filters the variables and only its survivors get an exact
// gain; the scalar loop takes the last l mod 8.
func (s *solver) wss2(p wss2Pass) (up, dn pick) {
	up, dn = pick{math.Inf(-1), -1}, pick{math.Inf(-1), -1}
	l, k := s.l, 0
	switch {
	case useAVX512 && l >= 8:
		k = l &^ 7
		if len(s.est) < 2*k {
			s.est, s.surv = make([]float64, 2*k), make([]int, 2*k)
		}
		nu, nd := wss2AVX512(&s.grad[0], &s.grad[l], &s.alpha[0], &s.alpha[l], &s.diag[0], &p.ri[0], &s.est[0], k, p.gmax, p.qi, p.s2, s.c, &s.surv[0])
		for _, t := range s.surv[:nu] {
			s.wss2Up(&p, t, &up)
		}
		for _, t := range s.surv[k : k+nd] {
			s.wss2Down(&p, t, &dn)
		}
	case useAVX && l >= 4:
		k = l &^ 3
		var out [2]lanes
		wss2AVX(&s.grad[0], &s.grad[l], &s.alpha[0], &s.alpha[l], &s.diag[0], &p.ri[0], k, p.gmax, p.qi, p.s2, s.c, &out)
		up, dn = out[0].max(), out[1].max()
	}
	return s.wss2Scalar(p, k, up, dn)
}

// wss2Scalar folds k = from, …, l−1 into the picks up and dn. The up
// variable k is in I_low while a > 0, the down variable l+k while a < C.
// s2·K_ik is rounded on its own (an explicit conversion), so no build fuses
// it into the add.
func (s *solver) wss2Scalar(p wss2Pass, from int, up, dn pick) (pick, pick) {
	l, c := s.l, s.c
	gu, gd := s.grad[:l], s.grad[l:][:l]
	au, ad := s.alpha[:l], s.alpha[l:][:l]
	ri, diag := p.ri[:l], s.diag[:l]
	for k := from; k < l; k++ {
		q, m := p.qi+diag[k], float64(p.s2*ri[k])
		if b := p.gmax + gu[k]; au[k] > 0 && b > 0 {
			up.max(wss2Gain(b, q-m), k)
		}
		if b := p.gmax - gd[k]; ad[k] < c && b > 0 {
			dn.max(wss2Gain(b, q+m), k)
		}
	}
	return up, dn
}

// wss2Up is wss2Scalar's step for the up variable k alone, and wss2Down
// for the down variable l+k: the exact gains of wss2AVX512's survivors.
func (s *solver) wss2Up(p *wss2Pass, k int, up *pick) {
	if b := p.gmax + s.grad[k]; s.alpha[k] > 0 && b > 0 {
		up.max(wss2Gain(b, p.qi+s.diag[k]-float64(p.s2*p.ri[k])), k)
	}
}

func (s *solver) wss2Down(p *wss2Pass, k int, dn *pick) {
	if b := p.gmax - s.grad[s.l+k]; s.alpha[s.l+k] < s.c && b > 0 {
		dn.max(wss2Gain(b, p.qi+s.diag[k]+float64(p.s2*p.ri[k])), k)
	}
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
	l, si, sj := s.l, s.sample(i), s.sample(j)
	ri := s.cache.row(si)
	rj := s.cache.row(sj)
	oldAi, oldAj := s.alpha[i], s.alpha[j]

	// LIBSVM's Q̄_ii + Q̄_jj − 2·Q̄_ij for a same-sign pair and + 2·Q̄_ij for
	// an opposite-sign one; with Q̄_ij = y_i·y_j·K_ij both are this.
	quad := s.diag[si] + s.diag[sj] - 2*ri[sj]
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
	// G_t += Q̄_ti·ΔA_i + Q̄_tj·ΔA_j = ±(K_ti·y_i·ΔA_i + K_tj·y_j·ΔA_j).
	return s.step(ri, rj, s.y(i)*dAi, s.y(j)*dAj)
}

// step adds ci·K(k, i) + cj·K(k, j) to the up gradient G_k and subtracts it
// from the down gradient G_{l+k}, and returns the first-order scan of the
// result, in one pass over k < l, eight k at a time in AVX-512 or four in
// AVX2 where they run.
func (s *solver) step(ri, rj []float64, ci, cj float64) violators {
	u, d := noViolators(), noViolators()
	l, k := s.l, 0
	switch {
	case useAVX512 && l >= 8:
		k = l &^ 7
		var out [2]violators
		stepAVX512(&s.grad[0], &s.grad[l], &s.alpha[0], &s.alpha[l], &ri[0], &rj[0], k, ci, cj, s.c, &out)
		u, d = out[0], out[1]
	case useAVX && l >= 4:
		k = l &^ 3
		var out [4]lanes
		stepAVX(&s.grad[0], &s.grad[l], &s.alpha[0], &s.alpha[l], &ri[0], &rj[0], k, ci, cj, s.c, &out)
		u = lanesViolators(&out[0], &out[1])
		d = lanesViolators(&out[2], &out[3])
	}
	u, d = s.stepScalar(ri, rj, ci, cj, k, u, d)
	return merge(u, d, s.l)
}

// lanesViolators reduces a vector pass's gmax and gmin lanes.
func lanesViolators(hi, lo *lanes) violators {
	i, j := hi.max(), lo.min()
	return violators{gmax: i.v, i: i.k, gmin: j.v, j: j.k}
}

// stepScalar is step's pass for k = from, …, l−1, continuing the up- and
// down-half scans u and d. The two products are rounded on their own
// (explicit conversions: no fused multiply-add), computed once for both
// halves, and added in the order G + a + b.
func (s *solver) stepScalar(ri, rj []float64, ci, cj float64, from int, u, d violators) (violators, violators) {
	l, c := s.l, s.c
	gu, gd := s.grad[:l], s.grad[l:][:l]
	au, ad := s.alpha[:l], s.alpha[l:][:l]
	ri, rj = ri[:l], rj[:l]
	for k := from; k < l; k++ {
		a, b := float64(ri[k]*ci), float64(rj[k]*cj)
		g, h := float64(gu[k]+a)+b, float64(gd[k]-a)-b
		gu[k], gd[k] = g, h
		u.up(k, g, au[k], c)
		d.down(k, h, ad[k], c)
	}
	return u, d
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

// rowCache holds kernel rows K(i, ·) over the l samples of a solver in a
// slice indexed by sample, nil until first asked for. At most maxRows rows
// stay resident, the oldest computed dropped first (FIFO); the cap bites
// only past l = 4096, so the dataset sizes in this repository compute each
// row once. A dropped row is recomputed on demand to the same bits.
//
// With a Gram matrix, sample i is the matrix's idx[i] and a missing row is
// gathered from it, or with idx nil is the matrix's own row, uncopied;
// without one, a missing row is evaluated.
type rowCache struct {
	k       Kernel
	x       [][]float64
	gram    *Gram
	idx     []int
	rows    [][]float64
	order   []int // resident rows, oldest first
	maxRows int
}

func newRowCache(l int, k Kernel, x [][]float64) *rowCache {
	maxRows := l
	if l > 0 && l*l > MaxGramValues {
		maxRows = max(MaxGramValues/l, 2)
	}
	return &rowCache{k: k, x: x, rows: make([][]float64, l), maxRows: maxRows}
}

// features returns the feature row of sample i.
func (c *rowCache) features(i int) []float64 {
	if c.idx != nil {
		i = c.idx[i]
	}
	return c.x[i]
}

// self returns K(i, i).
func (c *rowCache) self(i int) float64 {
	if c.gram == nil {
		return c.k.Eval(c.x[i], c.x[i])
	}
	if c.idx != nil {
		i = c.idx[i]
	}
	return c.gram.m[i*c.gram.n+i]
}

func (c *rowCache) row(i int) []float64 {
	if r := c.rows[i]; r != nil {
		return r
	}
	if c.gram != nil && c.idx == nil {
		return c.gram.row(i)
	}
	r := make([]float64, len(c.rows))
	if c.gram != nil {
		gi := c.gram.row(c.idx[i])
		for j, s := range c.idx {
			r[j] = gi[s]
		}
	} else {
		xi := c.x[i]
		for j, xj := range c.x {
			r[j] = c.k.Eval(xi, xj)
		}
	}
	if len(c.order) >= c.maxRows {
		c.rows[c.order[0]] = nil
		c.order = c.order[1:]
	}
	c.rows[i] = r
	c.order = append(c.order, i)
	return r
}
