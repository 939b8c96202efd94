package core

import (
	"fmt"
	"math"
)

// DriftDetector watches a deployed stable-model's prediction residuals and
// signals when the model no longer matches reality (hardware aging, fan
// replacement, CRAC retuning, workload-mix shift) — the trigger for
// re-running the training pipeline. It keeps a sliding window of squared
// errors and raises once the windowed MSE exceeds a threshold.
//
// The paper trains offline and deploys online; drift detection closes the
// loop a production deployment needs.
type DriftDetector struct {
	window    int
	threshold float64
	residuals []float64 // ring buffer of squared errors
	next      int
	filled    bool
}

// NewDriftDetector creates a detector: drift is declared when the MSE over
// the last window observations exceeds mseThreshold. window must be >= 2 so
// a single outlier cannot trip it alone.
func NewDriftDetector(window int, mseThreshold float64) (*DriftDetector, error) {
	if window < 2 {
		return nil, fmt.Errorf("core: drift window %d < 2", window)
	}
	if mseThreshold <= 0 {
		return nil, fmt.Errorf("core: drift threshold %v must be > 0", mseThreshold)
	}
	return &DriftDetector{
		window:    window,
		threshold: mseThreshold,
		residuals: make([]float64, window),
	}, nil
}

// Observe records one (predicted, actual) pair and reports whether the
// windowed MSE currently exceeds the threshold. Drift is only declared once
// the window is full, so cold starts cannot false-positive.
func (d *DriftDetector) Observe(predicted, actual float64) bool {
	r := predicted - actual
	d.residuals[d.next] = r * r
	d.next = (d.next + 1) % d.window
	if d.next == 0 {
		d.filled = true
	}
	return d.Drifted()
}

// Drifted reports whether the current full window exceeds the threshold.
func (d *DriftDetector) Drifted() bool {
	if !d.filled {
		return false
	}
	return d.WindowMSE() > d.threshold
}

// WindowMSE returns the MSE over the retained window (over the samples seen
// so far if the window has not filled yet; NaN before any samples).
func (d *DriftDetector) WindowMSE() float64 {
	n := d.window
	if !d.filled {
		n = d.next
	}
	if n == 0 {
		return math.NaN()
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.residuals[i]
	}
	return sum / float64(n)
}

// Reset clears the window (call after retraining).
func (d *DriftDetector) Reset() {
	for i := range d.residuals {
		d.residuals[i] = 0
	}
	d.next = 0
	d.filled = false
}
