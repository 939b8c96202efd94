package mathx

import "errors"

// MultiLinearFit holds a multivariate least-squares fit
// y = Coef[0] + Coef[1]*x1 + ... + Coef[d]*xd.
type MultiLinearFit struct {
	Coef []float64
}

// At evaluates the multivariate fit on a feature vector.
func (f MultiLinearFit) At(x []float64) float64 {
	y := f.Coef[0]
	for i, v := range x {
		if i+1 < len(f.Coef) {
			y += f.Coef[i+1] * v
		}
	}
	return y
}

// FitRidge solves the Tikhonov-regularized normal equations
// (XᵀX + λI)β = Xᵀy with an unpenalized intercept, by Gaussian elimination
// with partial pivoting; dimensionality is small (≤ ~16), so the O(d³) solve
// is negligible. λ = 0 is ordinary least squares, which needs at least as
// many rows as coefficients and rejects exact collinearity as singular; any
// λ > 0 makes the solve well-posed under it (e.g. one-hot fractions that sum
// to 1, or constant columns).
func FitRidge(features [][]float64, ys []float64, lambda float64) (MultiLinearFit, error) {
	n := len(features)
	if n == 0 {
		return MultiLinearFit{}, ErrEmpty
	}
	if n != len(ys) {
		return MultiLinearFit{}, ErrLengthMismatch
	}
	if !(lambda >= 0) {
		return MultiLinearFit{}, errors.New("mathx: ridge lambda must be ≥ 0")
	}
	d := len(features[0]) + 1 // +1 intercept
	for _, row := range features {
		if len(row)+1 != d {
			return MultiLinearFit{}, errors.New("mathx: ragged feature rows")
		}
	}
	if lambda == 0 && n < d {
		return MultiLinearFit{}, errors.New("mathx: underdetermined system")
	}

	// Build XᵀX (d×d) and Xᵀy (d).
	xtx := make([][]float64, d)
	for i := range xtx {
		xtx[i] = make([]float64, d)
	}
	xty := make([]float64, d)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		row[0] = 1
		copy(row[1:], features[i])
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				xtx[a][b] += row[a] * row[b]
			}
			xty[a] += row[a] * ys[i]
		}
	}
	// Penalize every coefficient except the intercept.
	for a := 1; a < d; a++ {
		xtx[a][a] += lambda
	}
	coef, err := solveGaussian(xtx, xty)
	if err != nil {
		return MultiLinearFit{}, err
	}
	return MultiLinearFit{Coef: coef}, nil
}

// solveGaussian solves A·x = b in place with partial pivoting.
func solveGaussian(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if abs(a[r][col]) > abs(a[pivot][col]) {
				pivot = r
			}
		}
		if abs(a[pivot][col]) < 1e-12 {
			return nil, errors.New("mathx: singular system")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate below.
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
