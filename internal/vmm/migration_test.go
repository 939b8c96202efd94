package vmm

import (
	"math"
	"testing"
)

func TestMigrationSpecValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*MigrationSpec)
		ok     bool
	}{
		{"default", func(*MigrationSpec) {}, true},
		{"zero bandwidth", func(s *MigrationSpec) { s.BandwidthGBps = 0 }, false},
		{"negative dirty", func(s *MigrationSpec) { s.DirtyRateGBps = -1 }, false},
		{"dirty >= bw", func(s *MigrationSpec) { s.DirtyRateGBps = s.BandwidthGBps }, false},
		{"zero rounds", func(s *MigrationSpec) { s.MaxRounds = 0 }, false},
		{"zero threshold", func(s *MigrationSpec) { s.StopCopyThresholdGB = 0 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := DefaultMigrationSpec()
			tt.mutate(&s)
			err := s.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate = %v, ok %v", err, tt.ok)
			}
		})
	}
}

func TestPlanMigrationGeometricRounds(t *testing.T) {
	spec := MigrationSpec{
		BandwidthGBps:       1,
		DirtyRateGBps:       0.5,
		MaxRounds:           10,
		StopCopyThresholdGB: 0.3,
	}
	plan, err := PlanMigration(8, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds: 8 → 4 → 2 → 1 → 0.5 → 0.25 (≤0.3 after 5 rounds)
	if plan.Rounds != 5 {
		t.Errorf("rounds = %d, want 5", plan.Rounds)
	}
	// Pre-copy time = (8+4+2+1+0.5)/1 = 15.5 s
	if math.Abs(plan.PreCopySeconds-15.5) > 1e-9 {
		t.Errorf("precopy = %v, want 15.5", plan.PreCopySeconds)
	}
	// Downtime = 0.25/1 s
	if math.Abs(plan.DowntimeSeconds-0.25) > 1e-9 {
		t.Errorf("downtime = %v, want 0.25", plan.DowntimeSeconds)
	}
	if math.Abs(plan.TransferredGB-15.75) > 1e-9 {
		t.Errorf("transferred = %v, want 15.75", plan.TransferredGB)
	}
	if math.Abs(plan.TotalSeconds()-15.75) > 1e-9 {
		t.Errorf("total = %v", plan.TotalSeconds())
	}
}

func TestPlanMigrationMaxRoundsCap(t *testing.T) {
	spec := MigrationSpec{
		BandwidthGBps:       1,
		DirtyRateGBps:       0.9, // slow convergence
		MaxRounds:           3,
		StopCopyThresholdGB: 0.001,
	}
	plan, err := PlanMigration(4, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rounds != 3 {
		t.Errorf("rounds = %d, want capped 3", plan.Rounds)
	}
	// Residual after 3 rounds: 4*0.9^3 = 2.916 → long downtime.
	if math.Abs(plan.DowntimeSeconds-4*0.9*0.9*0.9) > 1e-9 {
		t.Errorf("downtime = %v", plan.DowntimeSeconds)
	}
}

func TestPlanMigrationValidation(t *testing.T) {
	if _, err := PlanMigration(0, DefaultMigrationSpec()); err == nil {
		t.Error("zero memory should fail")
	}
	if _, err := PlanMigration(4, MigrationSpec{}); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestHigherDirtyRateLongerMigration(t *testing.T) {
	slow := DefaultMigrationSpec()
	slow.DirtyRateGBps = 0.9
	fast := DefaultMigrationSpec()
	fast.DirtyRateGBps = 0.05
	p1, err := PlanMigration(16, slow)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanMigration(16, fast)
	if err != nil {
		t.Fatal(err)
	}
	if p1.TotalSeconds() <= p2.TotalSeconds() {
		t.Errorf("dirty 0.9 total %v should exceed dirty 0.05 total %v",
			p1.TotalSeconds(), p2.TotalSeconds())
	}
}
