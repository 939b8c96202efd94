package core

import (
	"errors"
	"fmt"
	"math"

	"vmtherm/internal/mathx"
	"vmtherm/internal/timeseries"
)

// Calibrator maintains the paper's runtime calibration γ (Eqs. 4–6):
//
//	dif = φ(t) − (ψ*(t) + γ)
//	γ  ← γ + λ·dif
//
// λ = 0 disables calibration (γ stays 0), which is the paper's
// "without calibration" baseline in Fig. 1(b).
type Calibrator struct {
	lambda  float64
	gamma   float64
	updates int
}

// DefaultLambda is the paper's learning rate.
const DefaultLambda = 0.8

// NewCalibrator returns a calibrator with learning rate lambda in [0, 1].
func NewCalibrator(lambda float64) (*Calibrator, error) {
	if lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("core: lambda %v outside [0,1]", lambda)
	}
	return &Calibrator{lambda: lambda}, nil
}

// Update applies Eqs. (5)–(6) for a measurement and the corresponding
// pre-defined curve value, returning the new γ.
func (c *Calibrator) Update(measured, curveValue float64) float64 {
	dif := measured - (curveValue + c.gamma)
	c.gamma += c.lambda * dif
	c.updates++
	return c.gamma
}

// Gamma returns the current calibration.
func (c *Calibrator) Gamma() float64 { return c.gamma }

// Updates returns how many calibration updates have been applied.
func (c *Calibrator) Updates() int { return c.updates }

// Reset clears the calibration back to γ = 0.
func (c *Calibrator) Reset() { c.gamma = 0; c.updates = 0 }

// DynamicConfig parameterizes online dynamic prediction (Eq. 8).
type DynamicConfig struct {
	// Lambda is the calibration learning rate (paper: 0.8).
	Lambda float64
	// UpdateEveryS is Δ_update, the calibration interval (paper example: 15 s).
	UpdateEveryS float64
	// GapS is Δ_gap, the prediction horizon (paper example: 60 s).
	GapS float64
}

// DefaultDynamicConfig uses the paper's running-example parameters.
func DefaultDynamicConfig() DynamicConfig {
	return DynamicConfig{Lambda: DefaultLambda, UpdateEveryS: 15, GapS: 60}
}

// Validate checks the configuration.
func (c DynamicConfig) Validate() error {
	if c.Lambda < 0 || c.Lambda > 1 {
		return fmt.Errorf("core: lambda %v outside [0,1]", c.Lambda)
	}
	if c.UpdateEveryS <= 0 {
		return fmt.Errorf("core: update interval must be > 0, got %v", c.UpdateEveryS)
	}
	if c.GapS <= 0 {
		return fmt.Errorf("core: prediction gap must be > 0, got %v", c.GapS)
	}
	return nil
}

// DynamicPredictor predicts CPU temperature Δ_gap seconds ahead by combining
// the pre-defined curve with runtime calibration (Eq. 8):
//
//	ψ(t + Δ_gap) = ψ*(t + Δ_gap) + γ
//
// Feed measurements through Observe; γ updates at most once per Δ_update.
// The calibrator is held by value so a predictor is one allocation (none
// when embedded) and Reset can re-anchor it in place.
type DynamicPredictor struct {
	curve      Curve
	cal        Calibrator
	cfg        DynamicConfig
	lastUpdate float64
	seeded     bool
}

// NewDynamicPredictor builds a predictor from a validated curve and config.
func NewDynamicPredictor(curve Curve, cfg DynamicConfig) (*DynamicPredictor, error) {
	d := new(DynamicPredictor)
	if err := d.Reset(curve, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// Reset re-anchors the predictor in place: afterwards it is indistinguishable
// from NewDynamicPredictor(curve, cfg) — γ = 0, no updates, unseeded. Curve
// and config are validated first; on error the predictor is left untouched.
func (d *DynamicPredictor) Reset(curve Curve, cfg DynamicConfig) error {
	if err := curve.Validate(); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	*d = DynamicPredictor{curve: curve, cal: Calibrator{lambda: cfg.Lambda}, cfg: cfg}
	return nil
}

// Observe feeds a measurement φ(t). The calibration updates when at least
// Δ_update seconds have elapsed since the previous update (and on the first
// observation, matching the paper's γ=0 start at t=0).
func (d *DynamicPredictor) Observe(t, measured float64) {
	if d.seeded && t-d.lastUpdate < d.cfg.UpdateEveryS {
		return
	}
	d.cal.Update(measured, d.curve.Value(t))
	d.lastUpdate = t
	d.seeded = true
}

// Predict returns ψ(now + Δ_gap) per Eq. (8).
func (d *DynamicPredictor) Predict(now float64) float64 {
	return d.PredictAt(now + d.cfg.GapS)
}

// PredictAt returns ψ(target) = ψ*(target) + γ for an arbitrary target time.
func (d *DynamicPredictor) PredictAt(target float64) float64 {
	return d.curve.Value(target) + d.cal.Gamma()
}

// Gamma exposes the current calibration (for instrumentation).
func (d *DynamicPredictor) Gamma() float64 { return d.cal.Gamma() }

// Config returns the predictor's configuration.
func (d *DynamicPredictor) Config() DynamicConfig { return d.cfg }

// PredictorState is the complete serializable state of a DynamicPredictor —
// everything needed to rebuild one that behaves bit-identically: the curve
// anchors, the configuration, the calibration γ and its update count, and
// the Δ_update gating clock. Used by the checkpoint layer for warm restarts.
type PredictorState struct {
	Curve       Curve
	Config      DynamicConfig
	Gamma       float64
	Updates     int
	LastUpdateS float64
	Seeded      bool
}

// State captures the predictor's full serializable state.
func (d *DynamicPredictor) State() PredictorState {
	return PredictorState{
		Curve:       d.curve,
		Config:      d.cfg,
		Gamma:       d.cal.gamma,
		Updates:     d.cal.updates,
		LastUpdateS: d.lastUpdate,
		Seeded:      d.seeded,
	}
}

// RestorePredictor rebuilds a predictor from a captured state. The restored
// predictor observes, calibrates and predicts exactly as the original would
// have from the capture point onward.
func RestorePredictor(st PredictorState) (*DynamicPredictor, error) {
	d, err := NewDynamicPredictor(st.Curve, st.Config)
	if err != nil {
		return nil, err
	}
	if st.Updates < 0 {
		return nil, fmt.Errorf("core: negative calibration update count %d", st.Updates)
	}
	d.cal.gamma = st.Gamma
	d.cal.updates = st.Updates
	d.lastUpdate = st.LastUpdateS
	d.seeded = st.Seeded
	return d, nil
}

// ReplayPoint is one prediction/outcome pair from a trace replay.
type ReplayPoint struct {
	// MadeAt is when the prediction was issued.
	MadeAt float64
	// Target is MadeAt + Δ_gap.
	Target float64
	// Predicted is ψ(Target) issued at MadeAt.
	Predicted float64
	// Actual is the measured temperature at Target (interpolated).
	Actual float64
}

// ReplayResult summarizes a dynamic-prediction replay over a trace.
type ReplayResult struct {
	Points []ReplayPoint
	MSE    float64
	MAE    float64
}

// Replay evaluates a dynamic predictor over a recorded temperature trace,
// simulating online operation: at every sample time the predictor observes
// the measurement (calibrating on its Δ_update schedule) and issues a
// prediction Δ_gap ahead; predictions whose target falls beyond the trace
// are discarded. This is the harness behind Fig. 1(b) and Fig. 1(c).
func Replay(trace *timeseries.Series, curve Curve, cfg DynamicConfig) (*ReplayResult, error) {
	if trace == nil || trace.Len() == 0 {
		return nil, errors.New("core: empty trace")
	}
	pred, err := NewDynamicPredictor(curve, cfg)
	if err != nil {
		return nil, err
	}
	last, err := trace.Last()
	if err != nil {
		return nil, err
	}
	res := &ReplayResult{}
	for i := 0; i < trace.Len(); i++ {
		p := trace.At(i)
		pred.Observe(p.T, p.V)
		target := p.T + cfg.GapS
		if target > last.T {
			continue
		}
		predicted := pred.PredictAt(target)
		actual, err := trace.ValueAt(target)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, ReplayPoint{
			MadeAt:    p.T,
			Target:    target,
			Predicted: predicted,
			Actual:    actual,
		})
	}
	if len(res.Points) == 0 {
		return nil, fmt.Errorf("core: trace too short for gap %v", cfg.GapS)
	}
	preds := make([]float64, len(res.Points))
	acts := make([]float64, len(res.Points))
	for i, pt := range res.Points {
		preds[i] = pt.Predicted
		acts[i] = pt.Actual
	}
	if res.MSE, err = mathx.MSE(preds, acts); err != nil {
		return nil, err
	}
	if res.MAE, err = mathx.MAE(preds, acts); err != nil {
		return nil, err
	}
	return res, nil
}

// EstimateTBreak deduces the break-in time from a measured trace, the way
// the paper "deduced [600 s] from experiments": it returns the earliest
// sample time after which every observation stays within tol of the final
// settled value (the mean of the last settleWin seconds). An unsettled
// trace is an error.
func EstimateTBreak(trace *timeseries.Series, settleWin, tol float64) (float64, error) {
	if trace == nil || trace.Len() == 0 {
		return 0, errors.New("core: empty trace")
	}
	if settleWin <= 0 || tol <= 0 {
		return 0, fmt.Errorf("core: invalid settle window %v / tol %v", settleWin, tol)
	}
	last, err := trace.Last()
	if err != nil {
		return 0, err
	}
	final, err := trace.MeanAfter(last.T - settleWin)
	if err != nil {
		return 0, err
	}
	// Walk backwards: the break time is just after the last excursion.
	breakAt := 0.0
	settled := true
	for i := trace.Len() - 1; i >= 0; i-- {
		p := trace.At(i)
		if math.Abs(p.V-final) > tol {
			if i+1 < trace.Len() {
				breakAt = trace.At(i + 1).T
			} else {
				settled = false
			}
			break
		}
	}
	if !settled {
		return 0, fmt.Errorf("core: trace never settles within tol %v", tol)
	}
	return breakAt, nil
}

// ProfileTrace extracts the Eq. (1)/(3) anchors from a measured trace:
// φ(0) is the first observation, ψ_stable the mean after tBreak.
func ProfileTrace(trace *timeseries.Series, tBreakS float64) (phi0, stable float64, err error) {
	if trace == nil || trace.Len() == 0 {
		return 0, 0, errors.New("core: empty trace")
	}
	first, err := trace.First()
	if err != nil {
		return 0, 0, err
	}
	stable, err = trace.MeanAfter(tBreakS)
	if err != nil {
		return 0, 0, fmt.Errorf("core: no samples after t_break %v: %w", tBreakS, err)
	}
	if math.IsNaN(stable) {
		return 0, 0, errors.New("core: NaN stable temperature")
	}
	return first.V, stable, nil
}
