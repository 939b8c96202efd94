package mathx

import (
	"errors"
	"math"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("mathx: empty input")

// ErrLengthMismatch is returned when paired inputs differ in length.
var ErrLengthMismatch = errors.New("mathx: length mismatch")

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or an error if xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// MSE returns the mean squared error between predicted and actual values.
func MSE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	var ss float64
	for i := range pred {
		d := pred[i] - actual[i]
		ss += d * d
	}
	return ss / float64(len(pred)), nil
}

// MAE returns the mean absolute error between predicted and actual.
func MAE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, ErrLengthMismatch
	}
	if len(pred) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - actual[i])
	}
	return s / float64(len(pred)), nil
}
