package fleet

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vmtherm/internal/mathx"
	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

// streamVariant is one admission setting of the seeded placement stream:
// headroom gate on and off, per-round cap on and off.
type streamVariant struct {
	name string
	adm  AdmissionPolicy
}

var streamVariants = []streamVariant{
	{"open", AdmissionPolicy{}},
	{"gated", AdmissionPolicy{HeadroomBudgetC: 15, MaxQueueDepth: -1}},
	{"capped", AdmissionPolicy{MaxPlacementsPerRound: 10}},
	{"gated-capped", AdmissionPolicy{HeadroomBudgetC: 15, MaxPlacementsPerRound: 10, MaxQueueDepth: 64}},
}

// streamBatches is the stream length per variant (4 × 60 = 240 batches).
const streamBatches = 60

// streamSpec draws one VM request: 1–4 vCPUs, one constant-profile task per
// vCPU — the shape the batch endpoint builds.
func streamSpec(rng *mathx.RNG, id string) workload.VMSpec {
	vcpus := rng.IntBetween(1, 4)
	spec := workload.VMSpec{ID: id, Config: vmm.VMConfig{VCPUs: vcpus, MemoryGB: float64(2 * vcpus)}}
	for k := 0; k < vcpus; k++ {
		frac := rng.Uniform(0.2, 1)
		spec.Tasks = append(spec.Tasks, workload.TaskSpec{
			Task:    vmm.Task{ID: fmt.Sprintf("%s-t%d", id, k), Class: vmm.CPUBound, CPUFraction: frac, MemGB: 0.5},
			Profile: workload.Constant{Level: frac},
		})
	}
	return spec
}

// liveVMIDs lists the fleet's placed VMs, sorted.
func liveVMIDs(c *Controller) []string {
	live := make([]string, 0, len(c.sim.vmHost))
	for id := range c.sim.vmHost {
		live = append(live, id)
	}
	slices.Sort(live)
	return live
}

// runPlaceStream drives one variant's seeded stream on a 2×8 fleet — batches
// of 1–24 VMs (a batch wider than its window share of 16 hosts contends and
// spills into later waves), the odd duplicate id and impossible shape,
// random retirements between batches and a round every few batches — and
// returns one line per decision and per round. check, when set, sees the
// controller (lock held by the caller's goroutine) at every predictor call —
// once per wave, after its collection — and after every PlaceBatch call.
func runPlaceStream(t *testing.T, v streamVariant, check func(c *Controller, afterBatch bool)) []byte {
	t.Helper()
	cfg := testConfig()
	cfg.MaxMigrationsPerRound = 1
	cfg.Admission = v.adm
	var c *Controller
	c, err := New(cfg, func(cases []workload.Case) ([]float64, error) {
		if check != nil {
			check(c, false)
		}
		return syntheticStable(cases)
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.SplitStable(2016, "place-stream:"+v.name)
	var out bytes.Buffer
	round := func() {
		rep, err := c.RunRound()
		if err != nil {
			t.Fatal(err)
		}
		// The drain's decisions are not returned; where every VM sits after
		// the round (drain and migrations included) stands in for them.
		where := fnv.New64a()
		for _, id := range liveVMIDs(c) {
			fmt.Fprintf(where, "%s@%s,", id, c.sim.vmHost[id])
		}
		fmt.Fprintf(&out, "%s round %d placed %d queued %d rejected %d hotspots %d moves %d vms %016x\n",
			v.name, rep.Round, rep.Placements, rep.Queued, rep.Rejections, rep.Hotspots, rep.AppliedMoves, where.Sum64())
	}
	round()
	seq := 0
	for b := 0; b < streamBatches; b++ {
		live := liveVMIDs(c)

		specs := make([]workload.VMSpec, rng.IntBetween(1, 24))
		for i := range specs {
			switch {
			case len(live) > 0 && rng.Bool(0.03):
				specs[i] = streamSpec(rng, live[rng.Intn(len(live))]) // duplicate id
			case rng.Bool(0.02):
				specs[i] = HeavyVMSpec(fmt.Sprintf("giant-%04d", seq), 4096, 4)
				seq++
			default:
				specs[i] = streamSpec(rng, fmt.Sprintf("vm-%04d", seq))
				seq++
			}
		}
		decs, err := c.PlaceBatch(specs)
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(c, true)
		}
		for _, d := range decs {
			fmt.Fprintf(&out, "%s b%02d %s %s %s %016x %s\n",
				v.name, b, d.VMID, d.Status, d.HostID, math.Float64bits(d.PredictedStableC), d.Code)
		}
		for n := rng.Intn(len(live)/5 + 1); n > 0; n-- {
			// A queued duplicate may have been retired already; any other
			// failure would be a fleet-side bug worth a line in the stream.
			id := live[rng.Intn(len(live))]
			if err := c.RemoveVM(id); err != nil && err != errNoSuchVM {
				t.Fatal(err)
			}
		}
		if rng.Bool(0.6) {
			round()
		}
	}
	return out.Bytes()
}

// TestPlaceDecisionStreamGolden pins the decision stream of 240 seeded
// batches — host ids, PredictedStableC bits, statuses, codes, and the
// per-round drain tallies — byte for byte against a file recorded before
// the placement plan ranked through a permutation and hosts memoised their
// deployment views: however PlaceBatch keeps its working set, it decides
// exactly as a full re-sort and a fresh deployment copy per candidate did.
//
//	go test ./internal/fleet -run TestPlaceDecisionStreamGolden -update-golden
func TestPlaceDecisionStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, v := range streamVariants {
		got.Write(runPlaceStream(t, v, nil))
	}
	path := filepath.Join("testdata", "place_stream.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("decision stream diverged from golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("decision stream length %d lines, golden %d", len(gl), len(wl))
	}
}
