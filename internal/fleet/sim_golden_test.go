package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// thermalBits is every host's noise-free die and case temperature, as bits,
// in host order: what the physics computed before the sensor quantized it.
func thermalBits(c *Controller) []byte {
	var b []byte
	for i := range c.sub.IDs() {
		die, cse := c.sub.Temps(i)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(die))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(cse))
	}
	return b
}

// busyRun runs 10 rounds of a 2 × 4 fleet whose every host carries 16
// profile-driven tasks (sine, bursty, constant) averaging three quarters of
// its cores. physRun's tenants stay near 5% utilization, where one ulp of
// the utilization curve is lost in rounding the host's heat; at 60–90% it
// reaches the die temperature.
func busyRun(t *testing.T) ([]RoundReport, *Controller) {
	t.Helper()
	cfg := testConfig()
	cfg.Racks, cfg.HostsPerRack = 2, 4
	cfg.MaxMigrationsPerRound = 1
	c, err := New(cfg, syntheticStable)
	if err != nil {
		t.Fatal(err)
	}
	for h, id := range c.order {
		for v := 0; v < 4; v++ {
			spec := workload.VMSpec{ID: fmt.Sprintf("busy-%d-%d", h, v), Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 6}}
			for k := 0; k < 4; k++ {
				var prof workload.Profile
				switch k {
				case 0:
					prof = workload.Sine{Base: 0.75, Amplitude: 0.2, Period: 97 + float64(13*h), Phase: float64(v)}
				case 1:
					prof = workload.Bursty{Low: 0.55, High: 0.95, Period: 45 + float64(h), DutyCycle: 0.3}
				default:
					prof = workload.Constant{Level: 0.6 + 0.03*float64(h+v+k)}
				}
				spec.Tasks = append(spec.Tasks, workload.TaskSpec{
					Task:    vmm.Task{ID: fmt.Sprintf("busy-%d-%d-t%d", h, v, k), Class: vmm.CPUBound, CPUFraction: 0.5, MemGB: 1},
					Profile: prof,
				})
			}
			if err := c.PlaceAt(id, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	reports, err := runRounds(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		reports[i].Latency, reports[i].ControlLatency = 0, 0
	}
	return reports, c
}

// TestSimulatedFleetGolden pins the simulator's bytes against SHA-256
// digests recorded before the tick addressed tasks by index and the power
// curve and fan conductance were memoised: physRun's round reports (JSON,
// wall-clock fields zeroed) and recorded telemetry (trace CSV) — a run that
// proposes migrations — and the noise-free die and case temperature bits
// of every host, after physRun and after busyRun. The sensor quantizes
// what reports and traces carry; the temperature bits are where a
// single-ulp change of the physics shows.
//
//	go test ./internal/fleet -run TestSimulatedFleetGolden -update-golden
func TestSimulatedFleetGolden(t *testing.T) {
	reports, trace, c := physRunOn(t, 1, 10)
	js, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	proposed := 0
	for _, r := range reports {
		proposed += r.ProposedMoves
	}
	if proposed == 0 {
		t.Fatal("the run proposed no migrations; the golden would not pin propose")
	}
	busyReports, busy := busyRun(t)
	busyJS, err := json.Marshal(busyReports)
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("reports sha256 %x\ntrace sha256 %x\nthermal sha256 %x\nbusy reports sha256 %x\nbusy thermal sha256 %x\n",
		sha256.Sum256(js), sha256.Sum256(trace), sha256.Sum256(thermalBits(c)),
		sha256.Sum256(busyJS), sha256.Sum256(thermalBits(busy)))
	path := filepath.Join("testdata", "sim_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("simulated fleet diverged from golden\n got:\n%s\nwant:\n%s\nreports: %s", got, want, js)
	}
}
