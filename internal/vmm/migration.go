package vmm

import "fmt"

// MigrationSpec parameterizes live pre-copy migration.
type MigrationSpec struct {
	// BandwidthGBps is the migration link throughput.
	BandwidthGBps float64
	// DirtyRateGBps is how fast the guest re-dirties transferred pages.
	DirtyRateGBps float64
	// MaxRounds caps pre-copy iterations before stop-and-copy.
	MaxRounds int
	// StopCopyThresholdGB switches to stop-and-copy once the residual dirty
	// set is this small.
	StopCopyThresholdGB float64
}

// DefaultMigrationSpec models a 10 GbE migration network.
func DefaultMigrationSpec() MigrationSpec {
	return MigrationSpec{
		BandwidthGBps:       1.25, // 10 Gb/s
		DirtyRateGBps:       0.2,
		MaxRounds:           8,
		StopCopyThresholdGB: 0.25,
	}
}

// Validate checks the spec. Migration only converges when the link outruns
// the dirty rate; reject non-converging configurations up front.
func (s MigrationSpec) Validate() error {
	if s.BandwidthGBps <= 0 {
		return fmt.Errorf("vmm: bandwidth must be > 0, got %v", s.BandwidthGBps)
	}
	if s.DirtyRateGBps < 0 {
		return fmt.Errorf("vmm: dirty rate must be >= 0, got %v", s.DirtyRateGBps)
	}
	if s.DirtyRateGBps >= s.BandwidthGBps {
		return fmt.Errorf("vmm: dirty rate %v >= bandwidth %v never converges",
			s.DirtyRateGBps, s.BandwidthGBps)
	}
	if s.MaxRounds < 1 {
		return fmt.Errorf("vmm: max rounds must be >= 1, got %d", s.MaxRounds)
	}
	if s.StopCopyThresholdGB <= 0 {
		return fmt.Errorf("vmm: stop-copy threshold must be > 0, got %v", s.StopCopyThresholdGB)
	}
	return nil
}

// MigrationPlan is the computed schedule of a pre-copy migration.
type MigrationPlan struct {
	// Rounds is the number of pre-copy iterations (excluding stop-and-copy).
	Rounds int
	// PreCopySeconds is time spent copying while the VM runs on the source.
	PreCopySeconds float64
	// DowntimeSeconds is the stop-and-copy blackout.
	DowntimeSeconds float64
	// TransferredGB is total bytes moved, including re-sent dirty pages.
	TransferredGB float64
}

// TotalSeconds is the end-to-end migration duration.
func (p MigrationPlan) TotalSeconds() float64 {
	return p.PreCopySeconds + p.DowntimeSeconds
}

// PlanMigration computes the pre-copy schedule for a VM with the given
// active memory footprint.
func PlanMigration(memGB float64, spec MigrationSpec) (MigrationPlan, error) {
	if err := spec.Validate(); err != nil {
		return MigrationPlan{}, err
	}
	if memGB <= 0 {
		return MigrationPlan{}, fmt.Errorf("vmm: memory footprint must be > 0, got %v", memGB)
	}
	var plan MigrationPlan
	remaining := memGB
	for plan.Rounds < spec.MaxRounds && remaining > spec.StopCopyThresholdGB {
		t := remaining / spec.BandwidthGBps
		plan.PreCopySeconds += t
		plan.TransferredGB += remaining
		remaining = spec.DirtyRateGBps * t // pages dirtied during this round
		plan.Rounds++
	}
	plan.DowntimeSeconds = remaining / spec.BandwidthGBps
	plan.TransferredGB += remaining
	return plan, nil
}
