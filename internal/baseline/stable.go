// Package baseline implements the comparison predictors the paper positions
// itself against:
//
//   - Task-temperature profiles (reference [4]): a per-task-class lookup
//     table, which by construction cannot represent heterogeneous multi-VM
//     mixes.
//   - The analytic RC model (reference [5]): steady-state physics fit on
//     aggregate utilization, fan count, and ambient only — blind to per-VM
//     structure.
//   - Ordinary least squares on the full Eq. (2) feature vector, isolating
//     the value of the SVM's nonlinearity.
//   - Naive dynamic predictors (last-value, linear extrapolation) as
//     comparison points for the calibrated-curve method.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"vmtherm/internal/dataset"
	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
)

// StablePredictor is the common interface for ψ_stable baselines.
type StablePredictor interface {
	// Name identifies the baseline in reports.
	Name() string
	// Fit trains on Eq. (2) records.
	Fit(records []dataset.Record) error
	// Predict estimates ψ_stable from a raw feature vector.
	Predict(features []float64) (float64, error)
}

// featureIndex returns the index of a named feature in the canonical order.
func featureIndex(name string) int {
	for i, n := range dataset.FeatureNames() {
		if n == name {
			return i
		}
	}
	panic(fmt.Sprintf("baseline: unknown feature %q", name))
}

// Indices resolved once; the dataset package owns the canonical order.
var (
	idxFans      = featureIndex("fan_count")
	idxAmbient   = featureIndex("ambient_c")
	idxCapacity  = featureIndex("cpu_capacity_ghz")
	idxTaskCount = featureIndex("task_count")
	idxFracCPU   = featureIndex("frac_cpu_bound")
	idxFracMem   = featureIndex("frac_mem_bound")
	idxFracIO    = featureIndex("frac_io_bound")
	idxFracBurst = featureIndex("frac_bursty")
)

// Mean predicts the global training mean — the sanity floor every useful
// model must beat.
type Mean struct {
	mean   float64
	fitted bool
}

// Name implements StablePredictor.
func (m *Mean) Name() string { return "mean" }

// Fit implements StablePredictor.
func (m *Mean) Fit(records []dataset.Record) error {
	if len(records) == 0 {
		return errors.New("baseline: no records")
	}
	var w mathx.Welford
	for _, r := range records {
		w.Add(r.StableTemp)
	}
	m.mean = w.Mean()
	m.fitted = true
	return nil
}

// Predict implements StablePredictor.
func (m *Mean) Predict([]float64) (float64, error) {
	if !m.fitted {
		return 0, errors.New("baseline: mean not fitted")
	}
	return m.mean, nil
}

// TaskProfile reimplements the task-temperature-profile approach of the
// paper's reference [4]: temperature is tabulated per task type. Multi-
// tenant records are reduced to their *dominant* task class, which is
// exactly the information loss the paper criticizes.
type TaskProfile struct {
	classMean map[vmm.TaskClass]float64
	global    float64
	fitted    bool
}

// Name implements StablePredictor.
func (tp *TaskProfile) Name() string { return "task-profile" }

// dominantClass picks the class with the largest mix fraction.
func dominantClass(features []float64) vmm.TaskClass {
	fracs := map[vmm.TaskClass]float64{
		vmm.CPUBound: features[idxFracCPU],
		vmm.MemBound: features[idxFracMem],
		vmm.IOBound:  features[idxFracIO],
		vmm.Bursty:   features[idxFracBurst],
	}
	best := vmm.CPUBound
	bestV := math.Inf(-1)
	for _, c := range vmm.TaskClasses() { // deterministic order
		if fracs[c] > bestV {
			best, bestV = c, fracs[c]
		}
	}
	return best
}

// Fit implements StablePredictor.
func (tp *TaskProfile) Fit(records []dataset.Record) error {
	if len(records) == 0 {
		return errors.New("baseline: no records")
	}
	sums := map[vmm.TaskClass]*mathx.Welford{}
	var global mathx.Welford
	for _, r := range records {
		c := dominantClass(r.Features)
		if sums[c] == nil {
			sums[c] = &mathx.Welford{}
		}
		sums[c].Add(r.StableTemp)
		global.Add(r.StableTemp)
	}
	tp.classMean = make(map[vmm.TaskClass]float64, len(sums))
	for c, w := range sums {
		tp.classMean[c] = w.Mean()
	}
	tp.global = global.Mean()
	tp.fitted = true
	return nil
}

// Predict implements StablePredictor.
func (tp *TaskProfile) Predict(features []float64) (float64, error) {
	if !tp.fitted {
		return 0, errors.New("baseline: task profile not fitted")
	}
	if len(features) != dataset.NumFeatures() {
		return 0, fmt.Errorf("baseline: %d features, want %d", len(features), dataset.NumFeatures())
	}
	if v, ok := tp.classMean[dominantClass(features)]; ok {
		return v, nil
	}
	return tp.global, nil
}

// RC reimplements the resistor–capacitor steady-state predictor of the
// paper's reference [5]: ψ = δ_env + P·R with R set by fan count. Faithful
// to the approach it models, P assumes *homogeneous tasks*: every deployed
// task contributes one nominal power quantum, so the power estimate is
// affine in task count. The model never sees measured per-task intensities
// or memory activity — that multi-tenant telemetry is precisely what the
// paper says traditional RC models lack, and withholding it is what makes
// this a baseline rather than a competitor.
type RC struct {
	fit    mathx.MultiLinearFit
	fitted bool
}

// Name implements StablePredictor.
func (rc *RC) Name() string { return "rc-model" }

// rcTerms maps a feature vector to the physics regressors:
// [n_tasks/capacity, 1/√(fans+1), n_tasks/capacity/√(fans+1)].
func rcTerms(features []float64) []float64 {
	n := features[idxTaskCount]
	if capacity := features[idxCapacity]; capacity > 0 {
		// Normalize by capacity so hosts of different sizes share
		// coefficients (cores ∝ capacity for a fixed clock).
		n = n / capacity
	}
	invSqrtFan := 1 / math.Sqrt(features[idxFans]+1)
	return []float64{n, invSqrtFan, n * invSqrtFan}
}

// Fit implements StablePredictor. It regresses (ψ − δ_env) on the physics
// terms; ambient enters with unit coefficient as the RC model dictates.
func (rc *RC) Fit(records []dataset.Record) error {
	if len(records) == 0 {
		return errors.New("baseline: no records")
	}
	x := make([][]float64, len(records))
	y := make([]float64, len(records))
	for i, r := range records {
		x[i] = rcTerms(r.Features)
		y[i] = r.StableTemp - r.Features[idxAmbient]
	}
	fit, err := mathx.FitRidge(x, y, 0)
	if err != nil {
		return fmt.Errorf("baseline: rc fit: %w", err)
	}
	rc.fit = fit
	rc.fitted = true
	return nil
}

// Predict implements StablePredictor.
func (rc *RC) Predict(features []float64) (float64, error) {
	if !rc.fitted {
		return 0, errors.New("baseline: rc not fitted")
	}
	if len(features) != dataset.NumFeatures() {
		return 0, fmt.Errorf("baseline: %d features, want %d", len(features), dataset.NumFeatures())
	}
	return features[idxAmbient] + rc.fit.At(rcTerms(features)), nil
}

// Linear is ordinary least squares on the full Eq. (2) feature vector.
type Linear struct {
	fit    mathx.MultiLinearFit
	fitted bool
}

// Name implements StablePredictor.
func (l *Linear) Name() string { return "linear" }

// Fit implements StablePredictor. Ridge regularization (tiny λ) handles the
// exact collinearities in the Eq. (2) encoding: constant host columns when
// all experiments share a host shape, and class fractions summing to one.
func (l *Linear) Fit(records []dataset.Record) error {
	if len(records) == 0 {
		return errors.New("baseline: no records")
	}
	x, y := dataset.FeaturesAndTargets(records)
	fit, err := mathx.FitRidge(x, y, 1e-6)
	if err != nil {
		return fmt.Errorf("baseline: linear fit: %w", err)
	}
	l.fit = fit
	l.fitted = true
	return nil
}

// Predict implements StablePredictor.
func (l *Linear) Predict(features []float64) (float64, error) {
	if !l.fitted {
		return 0, errors.New("baseline: linear not fitted")
	}
	if len(features) != dataset.NumFeatures() {
		return 0, fmt.Errorf("baseline: %d features, want %d", len(features), dataset.NumFeatures())
	}
	return l.fit.At(features), nil
}

// All returns one instance of every stable baseline.
func All() []StablePredictor {
	return []StablePredictor{&Mean{}, &TaskProfile{}, &RC{}, &Linear{}}
}

// Evaluate fits a baseline on train and returns its MSE on test.
func Evaluate(b StablePredictor, train, test []dataset.Record) (float64, error) {
	if err := b.Fit(train); err != nil {
		return 0, err
	}
	preds := make([]float64, len(test))
	actuals := make([]float64, len(test))
	for i, r := range test {
		p, err := b.Predict(r.Features)
		if err != nil {
			return 0, err
		}
		preds[i] = p
		actuals[i] = r.StableTemp
	}
	return mathx.MSE(preds, actuals)
}
