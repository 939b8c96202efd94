// Package core implements the paper's contribution: VM-level CPU temperature
// prediction for cloud datacenters.
//
// Stable prediction (Eqs. 1–2): a Support Vector Regression pipeline maps
// {θ_cpu, θ_memory, θ_fan, ξ_VM, δ_env} records to ψ_stable, with svm-scale
// preprocessing and easygrid-style (C, γ, ε) selection by k-fold
// cross-validation.
//
// Dynamic prediction (Eqs. 3–8): a pre-defined logarithmic saturation curve
// ψ*(t) anchored at φ(0) and ψ_stable is calibrated online with learning
// rate λ every Δ_update seconds; predictions at horizon Δ_gap add the
// current calibration γ.
package core

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vmtherm/internal/dataset"
	"vmtherm/internal/mlgrid"
	"vmtherm/internal/svm"
	"vmtherm/internal/workload"
)

// StableConfig configures stable-temperature model training.
type StableConfig struct {
	// Grid is the hyper-parameter search space (easygrid equivalent).
	Grid mlgrid.Config
	// ScaleLower/ScaleUpper bound the svm-scale feature range.
	ScaleLower, ScaleUpper float64
}

// DefaultStableConfig mirrors the paper's setup: RBF kernel, 10-fold
// grid-searched hyper-parameters, features scaled to [-1, 1].
func DefaultStableConfig() StableConfig {
	return StableConfig{
		Grid:       mlgrid.Default(),
		ScaleLower: -1,
		ScaleUpper: 1,
	}
}

// FastStableConfig is a reduced grid for tests and quick benchmarks; the
// full default grid is what cmd/vmtherm-train uses.
func FastStableConfig() StableConfig {
	cfg := DefaultStableConfig()
	cfg.Grid.Cs = []float64{1, 16, 256}
	cfg.Grid.Gammas = []float64{0.01, 0.1, 1}
	cfg.Grid.Epsilons = []float64{0.1}
	cfg.Grid.Folds = 5
	return cfg
}

// StablePredictor is a trained ψ_stable model: scaler + SVR + the grid point
// that won cross-validation.
type StablePredictor struct {
	scaler *svm.Scaler
	model  *svm.Model
	best   mlgrid.Point
	cvMSE  float64
}

// TrainStable fits the full paper pipeline on Eq. (2) records.
func TrainStable(ctx context.Context, records []dataset.Record, cfg StableConfig) (*StablePredictor, error) {
	if len(records) == 0 {
		return nil, errors.New("core: no training records")
	}
	x, y := dataset.FeaturesAndTargets(records)

	scaler, err := svm.NewScaler(cfg.ScaleLower, cfg.ScaleUpper)
	if err != nil {
		return nil, err
	}
	if err := scaler.Fit(x); err != nil {
		return nil, err
	}
	xs, err := scaler.TransformAll(x)
	if err != nil {
		return nil, err
	}

	best, model, err := mlgrid.Fit(ctx, xs, y, cfg.Grid)
	if err != nil {
		return nil, fmt.Errorf("core: grid search: %w", err)
	}
	return &StablePredictor{scaler: scaler, model: model, best: best.Point, cvMSE: best.MSE}, nil
}

// Best returns the winning grid point.
func (p *StablePredictor) Best() mlgrid.Point { return p.best }

// CVMSE returns the winning point's cross-validated MSE.
func (p *StablePredictor) CVMSE() float64 { return p.cvMSE }

// NumSV returns the support-vector count of the trained model.
func (p *StablePredictor) NumSV() int { return p.model.NumSV() }

// PredictFeatures predicts ψ_stable from a raw (unscaled) feature vector:
// PredictBatchInto over one row, so the figure an experiment scores is the
// figure the batch endpoints serve, bit for bit.
func (p *StablePredictor) PredictFeatures(features []float64) (float64, error) {
	var out [1]float64
	err := p.PredictBatchInto([][]float64{features}, out[:], new(PredictScratch))
	return out[0], err
}

// PredictScratch holds the reusable working memory of PredictBatchInto: the
// contiguous scaled-feature matrix and the SVM kernel's distance buffer. The
// zero value is ready to use; buffers grow on first use and are reused, so a
// long-lived scratch makes repeated batch predictions allocation-free. A
// scratch must not be shared between concurrent calls.
type PredictScratch struct {
	scaled []float64
	svm    svm.BatchScratch
}

// PredictBatchInto predicts ψ_stable for len(out) raw feature rows, writing
// one prediction per row into out. It is the allocation-free spine under
// PredictBatch: rows are scaled into the scratch's contiguous flat matrix
// and evaluated through the SVM batch kernel in one pass. Safe for
// concurrent use as long as each call has its own scratch.
func (p *StablePredictor) PredictBatchInto(features [][]float64, out []float64, s *PredictScratch) error {
	if len(features) != len(out) {
		return fmt.Errorf("core: %d feature rows for %d outputs", len(features), len(out))
	}
	if len(features) == 0 {
		return nil
	}
	dim := p.scaler.Dim()
	need := len(features) * dim
	if cap(s.scaled) < need {
		s.scaled = make([]float64, need)
	}
	s.scaled = s.scaled[:need]
	for i, row := range features {
		if err := p.scaler.TransformInto(row, s.scaled[i*dim:(i+1)*dim]); err != nil {
			return fmt.Errorf("core: batch row %d: %w", i, err)
		}
	}
	if err := p.model.PredictBatchInto(s.scaled, out, &s.svm); err != nil {
		return fmt.Errorf("core: batch predict: %w", err)
	}
	return nil
}

// PredictBatch predicts ψ_stable for many raw feature vectors at once,
// returning one prediction per row. It is the path a fleet-scale serving
// layer should use: rows are scaled through one reused scratch buffer and
// evaluated through the SVM batch kernel (flattened support vectors, blocked
// distance pass, fast exponential), which is substantially faster than
// looping PredictFeatures and returns the same bits. Loops that predict
// every round should hold a PredictScratch and call PredictBatchInto
// instead.
func (p *StablePredictor) PredictBatch(features [][]float64) ([]float64, error) {
	if len(features) == 0 {
		return nil, nil
	}
	out := make([]float64, len(features))
	var s PredictScratch
	if err := p.PredictBatchInto(features, out, &s); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictCase predicts ψ_stable for a workload case; horizonS is the
// experiment duration used to average dynamic profiles (Eq. 2's input
// derives from the VMM's view of deployment).
func (p *StablePredictor) PredictCase(c workload.Case, horizonS float64) (float64, error) {
	features, err := dataset.Encode(c, horizonS)
	if err != nil {
		return 0, err
	}
	return p.PredictFeatures(features)
}

// Save writes the predictor (scaler bounds + SVM model) in a single text
// stream: a vmtherm header section followed by a LIBSVM model body.
func (p *StablePredictor) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	mins, maxs := p.scaler.Bounds()
	fmt.Fprintln(bw, "vmtherm_stable_model v1")
	fmt.Fprintf(bw, "scale_lower %s\n", fmtFloat(p.scaler.Lower))
	fmt.Fprintf(bw, "scale_upper %s\n", fmtFloat(p.scaler.Upper))
	fmt.Fprintf(bw, "mins %s\n", joinFloats(mins))
	fmt.Fprintf(bw, "maxs %s\n", joinFloats(maxs))
	fmt.Fprintf(bw, "grid_c %s\n", fmtFloat(p.best.C))
	fmt.Fprintf(bw, "grid_gamma %s\n", fmtFloat(p.best.Gamma))
	fmt.Fprintf(bw, "grid_epsilon %s\n", fmtFloat(p.best.Epsilon))
	fmt.Fprintf(bw, "cv_mse %s\n", fmtFloat(p.cvMSE))
	fmt.Fprintln(bw, "model:")
	if err := bw.Flush(); err != nil {
		return err
	}
	return svm.WriteModel(w, p.model)
}

// LoadStable reads a predictor written by Save.
func LoadStable(r io.Reader) (*StablePredictor, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if strings.TrimSpace(line) != "vmtherm_stable_model v1" {
		return nil, fmt.Errorf("core: bad magic %q", strings.TrimSpace(line))
	}
	header := map[string]string{}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("core: truncated header: %w", err)
		}
		line = strings.TrimSpace(line)
		if line == "model:" {
			break
		}
		parts := strings.SplitN(line, " ", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("core: malformed header line %q", line)
		}
		header[parts[0]] = parts[1]
	}
	lower, err := parseFloat(header, "scale_lower")
	if err != nil {
		return nil, err
	}
	upper, err := parseFloat(header, "scale_upper")
	if err != nil {
		return nil, err
	}
	mins, err := parseFloats(header, "mins")
	if err != nil {
		return nil, err
	}
	maxs, err := parseFloats(header, "maxs")
	if err != nil {
		return nil, err
	}
	scaler, err := svm.NewScaler(lower, upper)
	if err != nil {
		return nil, err
	}
	if err := scaler.SetBounds(mins, maxs); err != nil {
		return nil, err
	}
	model, err := svm.ReadModel(br)
	if err != nil {
		return nil, err
	}
	if scaler.Dim() != model.Dim {
		return nil, fmt.Errorf("core: header scales %d features, model has %d", scaler.Dim(), model.Dim)
	}
	p := &StablePredictor{scaler: scaler, model: model}
	// Grid metadata is informational; ignore absence.
	if v, err := parseFloat(header, "grid_c"); err == nil {
		p.best.C = v
	}
	if v, err := parseFloat(header, "grid_gamma"); err == nil {
		p.best.Gamma = v
	}
	if v, err := parseFloat(header, "grid_epsilon"); err == nil {
		p.best.Epsilon = v
	}
	if v, err := parseFloat(header, "cv_mse"); err == nil {
		p.cvMSE = v
	}
	return p, nil
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', 17, 64) }

func joinFloats(fs []float64) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmtFloat(f)
	}
	return strings.Join(parts, " ")
}

func parseFloat(h map[string]string, key string) (float64, error) {
	s, ok := h[key]
	if !ok {
		return 0, fmt.Errorf("core: header missing %q", key)
	}
	v, err := parseFinite(s)
	if err != nil {
		return 0, fmt.Errorf("core: header %q: %w", key, err)
	}
	return v, nil
}

// parseFinite parses one number of the header; like the model body
// (svm.ReadModel) the header is untrusted, and a NaN or ±Inf bound would
// scale every feature to NaN.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not finite", s)
	}
	return v, nil
}

func parseFloats(h map[string]string, key string) ([]float64, error) {
	s, ok := h[key]
	if !ok {
		return nil, fmt.Errorf("core: header missing %q", key)
	}
	fields := strings.Fields(s)
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := parseFinite(f)
		if err != nil {
			return nil, fmt.Errorf("core: header %q field %d: %w", key, i, err)
		}
		out[i] = v
	}
	return out, nil
}
