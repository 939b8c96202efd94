// Package energy models datacenter cooling economics, the paper's stated
// motivation: "Temperature prediction can enhance datacenter thermal
// management towards minimizing cooling power draw." It provides the
// chilled-water COP curve standard in the thermal-management literature,
// cooling-power accounting, and a setpoint optimizer that converts
// temperature *predictions* into a safe CRAC supply-temperature raise —
// the proactive decision the paper argues prediction enables.
package energy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// COP returns the cooling plant's coefficient of performance at a given
// supply air temperature, using the widely-cited HP Utility Datacenter
// model: COP(T) = 0.0068·T² + 0.0008·T + 0.458 (T in °C). Higher supply
// temperatures cool more efficiently — the entire reason raising the
// setpoint saves energy.
func COP(supplyC float64) float64 {
	return 0.0068*supplyC*supplyC + 0.0008*supplyC + 0.458
}

// CoolingPower returns the power (W) the plant draws to remove heatW watts
// of server heat at the given supply temperature.
func CoolingPower(heatW, supplyC float64) (float64, error) {
	if heatW < 0 {
		return 0, fmt.Errorf("energy: negative heat %v", heatW)
	}
	cop := COP(supplyC)
	if cop <= 0 {
		return 0, fmt.Errorf("energy: non-positive COP at supply %v", supplyC)
	}
	return heatW / cop, nil
}

// The CRAC optimizer's bounds: an 85 °C thermal ceiling and ASHRAE-ish
// supply bounds.
const (
	// MaxSafeTempC is the hottest allowed (predicted) CPU temperature.
	MaxSafeTempC = 85.0
	// minSupplyC and maxSupplyC bound the plant's achievable setpoints.
	minSupplyC, maxSupplyC = 14.0, 27.0
	// sensitivityPerC is how much a server's stable temperature rises per
	// °C of supply increase. For the RC server model this is ≈ 1 (verified
	// by thermal tests); leakage pushes it slightly above.
	sensitivityPerC = 1.05
)

// OptimizeSetpoint returns the highest supply temperature that keeps every
// host's predicted temperature at or below the safety ceiling, given
// predictions made at a reference supply temperature. The margin of the
// hottest host limits the raise:
//
//	supply* = refSupply + (MaxSafeTempC − maxPredicted) / sensitivityPerC
//
// clamped to the plant bounds. An empty prediction map is an error: flying
// blind is exactly what the optimizer exists to prevent.
func OptimizeSetpoint(predictedAtRef map[string]float64, refSupplyC float64) (float64, error) {
	if len(predictedAtRef) == 0 {
		return 0, errors.New("energy: no predictions to optimize against")
	}
	hottest := math.Inf(-1)
	for _, t := range predictedAtRef {
		if t > hottest {
			hottest = t
		}
	}
	headroom := (MaxSafeTempC - hottest) / sensitivityPerC
	return min(max(refSupplyC+headroom, minSupplyC), maxSupplyC), nil
}

// Report compares cooling cost between two setpoints for a given heat load.
type Report struct {
	HeatW            float64
	BaselineSupplyC  float64
	OptimizedSupplyC float64
	BaselinePowerW   float64
	OptimizedPowerW  float64
}

// SavingsFrac is the fraction of cooling power saved by the optimization.
func (r Report) SavingsFrac() float64 {
	if r.BaselinePowerW == 0 {
		return 0
	}
	return 1 - r.OptimizedPowerW/r.BaselinePowerW
}

// Compare computes cooling power at a baseline and an optimized setpoint.
func Compare(heatW, baselineSupplyC, optimizedSupplyC float64) (Report, error) {
	basePower, err := CoolingPower(heatW, baselineSupplyC)
	if err != nil {
		return Report{}, err
	}
	optPower, err := CoolingPower(heatW, optimizedSupplyC)
	if err != nil {
		return Report{}, err
	}
	return Report{
		HeatW:            heatW,
		BaselineSupplyC:  baselineSupplyC,
		OptimizedSupplyC: optimizedSupplyC,
		BaselinePowerW:   basePower,
		OptimizedPowerW:  optPower,
	}, nil
}

// HostHeat estimates one server's heat output (W) from an affine power
// model: idle + span·utilization. It mirrors the dominant terms of the
// thermal package's power model without requiring a full thermal assembly.
func HostHeat(idleW, maxW, utilization float64) (float64, error) {
	if idleW < 0 || maxW < idleW {
		return 0, fmt.Errorf("energy: power bounds invalid (idle %v, max %v)", idleW, maxW)
	}
	u := math.Max(0, math.Min(1, utilization))
	return idleW + (maxW-idleW)*u, nil
}

// TotalHeat sums per-host heats, returning the total and a deterministic
// per-host breakdown (sorted by host id).
type HostHeatEntry struct {
	HostID string
	HeatW  float64
}

// SumHeat aggregates a per-host heat map.
func SumHeat(heats map[string]float64) (float64, []HostHeatEntry) {
	entries := make([]HostHeatEntry, 0, len(heats))
	var total float64
	for id, h := range heats {
		entries = append(entries, HostHeatEntry{HostID: id, HeatW: h})
		total += h
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].HostID < entries[j].HostID })
	return total, entries
}
