package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vmtherm/internal/substrate"
	"vmtherm/internal/timeseries"
	"vmtherm/internal/workload"
)

func TestCalibratorPaperExample(t *testing.T) {
	// Paper Eqs. (5)–(6): γ starts at 0; at t=15 the measurement differs
	// from ψ*(15) by dif, and γ becomes λ·dif.
	cal := &Calibrator{lambda: 0.8}
	if cal.Gamma() != 0 {
		t.Fatal("γ must start at 0")
	}
	// measured 52, curve 50 → dif = 2 → γ = 1.6
	got := cal.Update(52, 50)
	if math.Abs(got-1.6) > 1e-12 {
		t.Errorf("γ after first update = %v, want 1.6", got)
	}
	// Second update accounts for existing γ: dif = 53 − (50 + 1.6) = 1.4;
	// γ = 1.6 + 0.8·1.4 = 2.72.
	got = cal.Update(53, 50)
	if math.Abs(got-2.72) > 1e-12 {
		t.Errorf("γ after second update = %v, want 2.72", got)
	}
	if cal.updates != 2 {
		t.Errorf("updates = %d", cal.updates)
	}
}

func TestCalibratorZeroLambdaNeverMoves(t *testing.T) {
	cal := &Calibrator{lambda: 0}
	for i := 0; i < 10; i++ {
		cal.Update(100, 0)
	}
	if cal.Gamma() != 0 {
		t.Errorf("γ with λ=0 = %v, want 0", cal.Gamma())
	}
}

func TestCalibratorConvergesToConstantOffset(t *testing.T) {
	// With a constant measurement offset, γ must converge to that offset.
	cal := &Calibrator{lambda: 0.8}
	const offset = 5.0
	for i := 0; i < 30; i++ {
		cal.Update(60+offset, 60)
	}
	if math.Abs(cal.Gamma()-offset) > 1e-6 {
		t.Errorf("γ = %v, want converged to %v", cal.Gamma(), offset)
	}
}

func TestDynamicConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*DynamicConfig)
		ok     bool
	}{
		{"default", func(*DynamicConfig) {}, true},
		{"negative lambda", func(c *DynamicConfig) { c.Lambda = -0.1 }, false},
		{"lambda over 1", func(c *DynamicConfig) { c.Lambda = 1.2 }, false},
		{"zero update", func(c *DynamicConfig) { c.UpdateEveryS = 0 }, false},
		{"zero gap", func(c *DynamicConfig) { c.GapS = 0 }, false},
	}
	// NaN fails every comparison, so range checks alone let it through.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		tests = append(tests, []struct {
			name   string
			mutate func(*DynamicConfig)
			ok     bool
		}{
			{fmt.Sprint("lambda ", v), func(c *DynamicConfig) { c.Lambda = v }, false},
			{fmt.Sprint("update ", v), func(c *DynamicConfig) { c.UpdateEveryS = v }, false},
			{fmt.Sprint("gap ", v), func(c *DynamicConfig) { c.GapS = v }, false},
		}...)
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultDynamicConfig()
			tt.mutate(&c)
			err := c.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestDynamicPredictorPaperWalkthrough(t *testing.T) {
	// Reproduce the paper's §II running example: Δ_gap=60, Δ_update=15.
	curve, err := NewCurve(20, 70, 600, 30)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewDynamicPredictor(curve, DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	// At t=0 with γ=0 (Eq. 4): ψ(60) = ψ*(60).
	pred.Observe(0, curve.Value(0), nil) // perfect measurement → γ stays 0
	if got, want := pred.Predict(0, nil), curve.Value(60); math.Abs(got-want) > 1e-12 {
		t.Errorf("ψ(60) = %v, want ψ*(60) = %v", got, want)
	}
	// At t=15 the measurement runs 2° hot → γ = 0.8·2 = 1.6 (Eq. 6), and
	// ψ(75) = ψ*(75) + 1.6 (Eq. 7).
	pred.Observe(15, curve.Value(15)+2, nil)
	if math.Abs(pred.Gamma()-1.6) > 1e-12 {
		t.Errorf("γ = %v, want 1.6", pred.Gamma())
	}
	if got, want := pred.Predict(15, nil), curve.Value(75)+1.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("ψ(75) = %v, want %v", got, want)
	}
}

func TestObserveRespectsUpdateInterval(t *testing.T) {
	curve, err := NewCurve(20, 70, 600, 30)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewDynamicPredictor(curve, DynamicConfig{Lambda: 0.8, UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	pred.Observe(0, 25, nil) // first observation always calibrates
	g1 := pred.Gamma()
	pred.Observe(5, 40, nil) // too soon: ignored
	if pred.Gamma() != g1 {
		t.Error("observation inside Δ_update changed γ")
	}
	pred.Observe(15, 40, nil) // 15 s elapsed: applies
	if pred.Gamma() == g1 {
		t.Error("observation at Δ_update boundary ignored")
	}
}

func TestNewDynamicPredictorValidation(t *testing.T) {
	good, _ := NewCurve(20, 70, 600, 30)
	if _, err := NewDynamicPredictor(Curve{}, DefaultDynamicConfig()); err == nil {
		t.Error("invalid curve should fail")
	}
	bad := DefaultDynamicConfig()
	bad.GapS = -1
	if _, err := NewDynamicPredictor(good, bad); err == nil {
		t.Error("invalid config should fail")
	}
}

// syntheticTrace builds an exponential warm-up with a given noise-free shape,
// which deliberately differs from the log curve.
func syntheticTrace(t *testing.T, phi0, stable, tau float64, duration, step float64) *timeseries.Series {
	t.Helper()
	s := &timeseries.Series{}
	for tt := 0.0; tt <= duration; tt += step {
		v := stable + (phi0-stable)*math.Exp(-tt/tau)
		s.MustAppend(tt, v)
	}
	return s
}

func TestReplayCalibrationBeatsUncalibrated(t *testing.T) {
	// The simulator's transient is exponential while Eq. (3) is logarithmic,
	// so the raw curve is biased; calibration must shrink the error. This is
	// Fig. 1(b)'s claim.
	trace := syntheticTrace(t, 22, 75, 150, 1800, 5)
	curve, err := NewCurve(22, 75, 600, DefaultCurveDelta)
	if err != nil {
		t.Fatal(err)
	}
	with, err := Replay(trace, curve, DynamicConfig{Lambda: 0.8, UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Replay(trace, curve, DynamicConfig{Lambda: 0, UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if with.MSE >= without.MSE {
		t.Errorf("calibrated MSE %v should beat uncalibrated %v", with.MSE, without.MSE)
	}
	if with.MAE >= without.MAE {
		t.Errorf("calibrated MAE %v should beat uncalibrated %v", with.MAE, without.MAE)
	}
}

func TestReplayPerfectCurveIsNearPerfect(t *testing.T) {
	// If the trace IS the pre-defined curve, replay error must be ~0 even
	// without calibration.
	curve, err := NewCurve(20, 60, 600, 30)
	if err != nil {
		t.Fatal(err)
	}
	s := &timeseries.Series{}
	for tt := 0.0; tt <= 1200; tt += 5 {
		s.MustAppend(tt, curve.Value(tt))
	}
	res, err := Replay(s, curve, DynamicConfig{Lambda: 0, UpdateEveryS: 15, GapS: 60})
	if err != nil {
		t.Fatal(err)
	}
	if res.MSE > 1e-18 {
		t.Errorf("perfect-curve replay MSE = %v, want ~0", res.MSE)
	}
}

func TestReplayErrors(t *testing.T) {
	curve, _ := NewCurve(20, 60, 600, 30)
	if _, err := Replay(nil, curve, DefaultDynamicConfig()); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := Replay(&timeseries.Series{}, curve, DefaultDynamicConfig()); err == nil {
		t.Error("empty trace should fail")
	}
	short := &timeseries.Series{}
	short.MustAppend(0, 20)
	short.MustAppend(5, 21)
	if _, err := Replay(short, curve, DefaultDynamicConfig()); err == nil {
		t.Error("trace shorter than gap should fail")
	}
}

func TestReplayPointsBookkeeping(t *testing.T) {
	trace := syntheticTrace(t, 20, 60, 150, 600, 10)
	curve, _ := NewCurve(20, 60, 600, 30)
	res, err := Replay(trace, curve, DynamicConfig{Lambda: 0.8, UpdateEveryS: 20, GapS: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if math.Abs(p.Target-(p.MadeAt+50)) > 1e-9 {
			t.Fatalf("target %v != madeAt %v + gap", p.Target, p.MadeAt)
		}
		if p.Target > 600 {
			t.Fatalf("prediction target %v beyond trace end", p.Target)
		}
	}
}

func TestProfileTrace(t *testing.T) {
	trace := syntheticTrace(t, 25, 70, 100, 1800, 5)
	phi0, stable, err := ProfileTrace(trace, 600)
	if err != nil {
		t.Fatal(err)
	}
	if phi0 != 25 {
		t.Errorf("φ(0) = %v, want 25", phi0)
	}
	// After 6τ the exponential has converged; stable ≈ 70.
	if math.Abs(stable-70) > 0.2 {
		t.Errorf("ψ_stable = %v, want ≈70", stable)
	}
	if _, _, err := ProfileTrace(nil, 600); err == nil {
		t.Error("nil trace should fail")
	}
	if _, _, err := ProfileTrace(&timeseries.Series{}, 600); err == nil {
		t.Error("empty trace should fail")
	}
	short := &timeseries.Series{}
	short.MustAppend(0, 20)
	if _, _, err := ProfileTrace(short, 600); err == nil {
		t.Error("trace ending before t_break should fail")
	}
}

func TestReplayOnSimulatedRig(t *testing.T) {
	// End-to-end: a real simulated trace, calibrated dynamic prediction
	// should land in the paper's accuracy band (MSE well under ~2).
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 6, 6
	opts.FanChoices = []int{4}
	c, err := workload.GenerateCase(opts, 31, "replayrig")
	if err != nil {
		t.Fatal(err)
	}
	cfg := substrate.DefaultConfig()
	cfg.Seed = 31
	res, err := substrate.RunCase(c, cfg, 1800)
	if err != nil {
		t.Fatal(err)
	}
	phi0, stable, err := ProfileTrace(res.SensorTemps, 600)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := NewCurve(phi0, stable, 600, DefaultCurveDelta)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Replay(res.SensorTemps, curve, DefaultDynamicConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rr.MSE > 2.5 {
		t.Errorf("calibrated replay MSE on simulated rig = %v, want < 2.5", rr.MSE)
	}
}

func TestEstimateTBreak(t *testing.T) {
	// Exponential with tau=120: |v-final| <= 0.5 once t >= tau·ln(span/0.5).
	trace := syntheticTrace(t, 22, 70, 120, 1800, 5)
	got, err := EstimateTBreak(trace, 120, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// span 48, analytic settle ≈ 120·ln(48/0.5) ≈ 548 s; the last-window
	// mean shifts the threshold slightly, so accept a band.
	if got < 400 || got > 700 {
		t.Errorf("estimated t_break = %v, want ≈550 (paper settles on 600)", got)
	}
	// A tighter tolerance must push the estimate later.
	tight, err := EstimateTBreak(trace, 120, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tight <= got {
		t.Errorf("tighter tol should settle later: %v vs %v", tight, got)
	}
}

func TestEstimateTBreakAlreadyStable(t *testing.T) {
	s := &timeseries.Series{}
	for tt := 0.0; tt <= 600; tt += 5 {
		s.MustAppend(tt, 50)
	}
	got, err := EstimateTBreak(s, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("flat trace t_break = %v, want 0", got)
	}
}

func TestEstimateTBreakNeverSettles(t *testing.T) {
	s := &timeseries.Series{}
	for tt := 0.0; tt <= 600; tt += 5 {
		s.MustAppend(tt, tt) // unbounded ramp
	}
	if _, err := EstimateTBreak(s, 50, 0.5); err == nil {
		t.Error("ramp should never settle")
	}
}

func TestEstimateTBreakValidation(t *testing.T) {
	trace := syntheticTrace(t, 22, 70, 120, 600, 5)
	if _, err := EstimateTBreak(nil, 100, 0.5); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := EstimateTBreak(trace, 0, 0.5); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := EstimateTBreak(trace, 100, 0); err == nil {
		t.Error("zero tol should fail")
	}
}

func TestEstimateTBreakOnSimulatedRig(t *testing.T) {
	// The reference server should settle well before the paper's 600 s.
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 6, 6
	c, err := workload.GenerateCase(opts, 51, "tbreak")
	if err != nil {
		t.Fatal(err)
	}
	cfg := substrate.DefaultConfig()
	cfg.Seed = 51
	res, err := substrate.RunCase(c, cfg, 1800)
	if err != nil {
		t.Fatal(err)
	}
	// Use the noise-free trace; sensor noise inflates the excursion check.
	got, err := EstimateTBreak(res.TrueTemps, 300, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if got > 600 {
		t.Errorf("simulated server settles at %v s, should be within the paper's 600 s", got)
	}
}

// TestPredictorLogSpanMatchesCurveValue pins the re-anchor-time log term:
// Observe and PredictAt, on a fresh and on a restored predictor, give the
// same bits as Curve.Value and as the two-logarithm expression it replaced,
// over seeded random curves and times before 0, past t_break and between.
func TestPredictorLogSpanMatchesCurveValue(t *testing.T) {
	replaced := func(c Curve, t float64) float64 {
		if t <= 0 {
			return c.Phi0
		}
		if t >= c.TBreakS {
			return c.Stable
		}
		frac := math.Log1p(t/c.DeltaS) / math.Log1p(c.TBreakS/c.DeltaS)
		return c.Phi0 + (c.Stable-c.Phi0)*frac
	}
	rng := rand.New(rand.NewSource(2016))
	cfg := DynamicConfig{Lambda: 0.8, UpdateEveryS: 1e-9, GapS: 60}
	for i := 0; i < 500; i++ {
		curve, err := NewCurve(15+rng.Float64()*30, 30+rng.Float64()*60, 1+rng.Float64()*1200, 0.1+rng.Float64()*200)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDynamicPredictor(curve, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := Calibrator{lambda: cfg.Lambda}
		at := 0.0
		for j := 0; j < 40; j++ {
			if j == 20 {
				if d, err = RestorePredictor(d.State()); err != nil {
					t.Fatal(err)
				}
			}
			var target float64
			switch j % 4 {
			case 0:
				target = -rng.Float64() * 100
			case 1:
				target = curve.TBreakS * (1 + rng.Float64())
			default:
				target = rng.Float64() * curve.TBreakS
			}
			want := replaced(curve, target)
			if v := curve.Value(target); math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("curve %+v: Value(%v) = %v, replaced expression %v", curve, target, v, want)
			}
			if got := d.PredictAt(target); math.Float64bits(got) != math.Float64bits(want+ref.Gamma()) {
				t.Fatalf("curve %+v: PredictAt(%v) = %v, want %v", curve, target, got, want+ref.Gamma())
			}
			at += rng.Float64() * curve.TBreakS / 10
			measured := replaced(curve, at) + rng.NormFloat64()
			d.Observe(at, measured, nil)
			ref.Update(measured, replaced(curve, at))
			if math.Float64bits(d.Gamma()) != math.Float64bits(ref.Gamma()) {
				t.Fatalf("curve %+v: γ after Observe(%v) = %v, want %v", curve, at, d.Gamma(), ref.Gamma())
			}
		}
	}
}
