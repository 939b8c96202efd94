package dataset

import (
	"context"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vmtherm/internal/vmm"
	"vmtherm/internal/workload"
)

func testCases(t *testing.T, n int) []workload.Case {
	t.Helper()
	opts := workload.DefaultGenOptions()
	cases, err := workload.GenerateCases(opts, 3, "ds", n)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

func TestEncodeShapeAndDeterminism(t *testing.T) {
	c := testCases(t, 1)[0]
	f1, err := Encode(c, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != NumFeatures() {
		t.Fatalf("feature length %d, want %d", len(f1), NumFeatures())
	}
	f2, err := Encode(c, 1800)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("encode not deterministic at %d", i)
		}
	}
}

func TestEncodeSemantics(t *testing.T) {
	c := workload.Case{
		Name:     "manual",
		Host:     vmm.HostConfig{Cores: 8, GHzPerCore: 2, MemoryGB: 32, CPUOvercommit: 2},
		FanCount: 4,
		AmbientC: 25,
		VMs: []workload.VMSpec{
			{
				ID:     "a",
				Config: vmm.VMConfig{VCPUs: 2, MemoryGB: 8},
				Tasks: []workload.TaskSpec{
					{Task: vmm.Task{ID: "a-t0", Class: vmm.CPUBound, CPUFraction: 0.8, MemGB: 1}},
					{Task: vmm.Task{ID: "a-t1", Class: vmm.MemBound, CPUFraction: 0.4, MemGB: 4}},
				},
			},
			{
				ID:     "b",
				Config: vmm.VMConfig{VCPUs: 4, MemoryGB: 16},
				Tasks: []workload.TaskSpec{
					{Task: vmm.Task{ID: "b-t0", Class: vmm.CPUBound, CPUFraction: 0.6, MemGB: 2}},
				},
			},
		},
	}
	f, err := Encode(c, 1800)
	if err != nil {
		t.Fatal(err)
	}
	names := FeatureNames()
	get := func(name string) float64 {
		t.Helper()
		for i, n := range names {
			if n == name {
				return f[i]
			}
		}
		t.Fatalf("no feature %q", name)
		return 0
	}
	if get("cpu_capacity_ghz") != 16 {
		t.Errorf("cpu capacity = %v", get("cpu_capacity_ghz"))
	}
	if get("memory_gb") != 32 || get("fan_count") != 4 || get("ambient_c") != 25 {
		t.Error("host/env features wrong")
	}
	if get("vm_count") != 2 || get("vcpus_allocated") != 6 || get("mem_allocated_gb") != 24 {
		t.Error("vm aggregation wrong")
	}
	if math.Abs(get("cpu_demand_vcpus")-1.8) > 1e-9 {
		t.Errorf("demand = %v, want 1.8", get("cpu_demand_vcpus"))
	}
	if get("mem_active_gb") != 7 {
		t.Errorf("mem active = %v, want 7", get("mem_active_gb"))
	}
	if get("task_count") != 3 {
		t.Error("task count wrong")
	}
	if math.Abs(get("task_cpu_mean")-0.6) > 1e-9 || get("task_cpu_max") != 0.8 {
		t.Error("task cpu stats wrong")
	}
	if math.Abs(get("frac_cpu_bound")-2.0/3) > 1e-9 || math.Abs(get("frac_mem_bound")-1.0/3) > 1e-9 {
		t.Error("class mix wrong")
	}
	if get("frac_io_bound") != 0 || get("frac_bursty") != 0 {
		t.Error("absent classes should be zero")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := Encode(workload.Case{}, 1800); err == nil {
		t.Error("no VMs should fail")
	}
	c := testCases(t, 1)[0]
	if _, err := Encode(c, 0); err == nil {
		t.Error("zero horizon should fail")
	}
	empty := c
	empty.VMs = []workload.VMSpec{{ID: "v", Config: vmm.VMConfig{VCPUs: 1, MemoryGB: 1}}}
	if _, err := Encode(empty, 1800); err == nil {
		t.Error("no tasks should fail")
	}
}

func TestBuildProducesSaneRecords(t *testing.T) {
	cases := testCases(t, 6)
	opts := DefaultBuildOptions(1)
	recs, err := Build(context.Background(), cases, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(cases) {
		t.Fatalf("%d records for %d cases", len(recs), len(cases))
	}
	for i, r := range recs {
		if r.CaseName != cases[i].Name {
			t.Errorf("record %d order broken: %s vs %s", i, r.CaseName, cases[i].Name)
		}
		// Stable temperatures must exceed ambient and stay below silicon limits.
		if r.StableTemp < cases[i].AmbientC || r.StableTemp > 110 {
			t.Errorf("case %s stable temp %v implausible (ambient %v)",
				r.CaseName, r.StableTemp, cases[i].AmbientC)
		}
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	cases := testCases(t, 5)
	serial := DefaultBuildOptions(7)
	serial.Workers = 1
	parallel := DefaultBuildOptions(7)
	parallel.Workers = 4
	a, err := Build(context.Background(), cases, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(context.Background(), cases, parallel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].StableTemp != b[i].StableTemp {
			t.Fatalf("record %d differs across worker counts: %v vs %v",
				i, a[i].StableTemp, b[i].StableTemp)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(context.Background(), nil, DefaultBuildOptions(1)); err == nil {
		t.Error("no cases should fail")
	}
	for _, c := range []struct {
		name   string
		mutate func(*BuildOptions)
		field  string
	}{
		{"negative workers", func(o *BuildOptions) { o.Workers = -1 }, "workers"},
	} {
		opts := DefaultBuildOptions(1)
		c.mutate(&opts)
		if _, err := Build(context.Background(), testCases(t, 1), opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Build = %v, want the %s refused", c.name, err, c.field)
		}
	}
}

func TestSplit(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{CaseName: string(rune('a' + i%26)), StableTemp: float64(i)}
	}
	train, test, err := Split(recs, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	// No overlap, full coverage.
	seen := map[float64]bool{}
	for _, r := range append(append([]Record{}, train...), test...) {
		if seen[r.StableTemp] {
			t.Fatal("duplicate record after split")
		}
		seen[r.StableTemp] = true
	}
	if len(seen) != 100 {
		t.Fatalf("coverage %d/100", len(seen))
	}
	// Determinism.
	train2, _, err := Split(recs, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range train {
		if train[i].StableTemp != train2[i].StableTemp {
			t.Fatal("split not deterministic")
		}
	}
}

func TestSplitValidation(t *testing.T) {
	if _, _, err := Split(nil, 0.2, 1); err == nil {
		t.Error("empty records should fail")
	}
	if _, _, err := Split(make([]Record, 3), 1.0, 1); err == nil {
		t.Error("testFrac 1.0 should fail")
	}
	if _, _, err := Split(make([]Record, 3), -0.1, 1); err == nil {
		t.Error("negative testFrac should fail")
	}
}

func TestFeaturesAndTargets(t *testing.T) {
	recs := []Record{
		{Features: []float64{1, 2}, StableTemp: 50},
		{Features: []float64{3, 4}, StableTemp: 60},
	}
	x, y := FeaturesAndTargets(recs)
	if len(x) != 2 || len(y) != 2 || x[1][0] != 3 || y[0] != 50 {
		t.Error("unzip wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	cases := testCases(t, 3)
	recs, err := Build(context.Background(), cases, DefaultBuildOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, recs); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string{"case"}, FeatureNames()...), "stable_temp_c")
	if !slices.Equal(rows[0], want) {
		t.Fatalf("header %v, want %v", rows[0], want)
	}
	if len(rows) != len(recs)+1 {
		t.Fatalf("%d rows for %d records", len(rows)-1, len(recs))
	}
	for i, rec := range recs {
		row := rows[i+1]
		if row[0] != rec.CaseName {
			t.Fatalf("record %d case %q, want %q", i, row[0], rec.CaseName)
		}
		for j, v := range append(slices.Clone(rec.Features), rec.StableTemp) {
			if got, err := strconv.ParseFloat(row[j+1], 64); err != nil || got != v {
				t.Fatalf("record %d column %d = %q, want %v", i, j+1, row[j+1], v)
			}
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if err := WriteCSV(&strings.Builder{}, nil); err == nil {
		t.Error("empty write should fail")
	}
	if err := WriteCSV(&strings.Builder{}, []Record{{Features: []float64{1}}}); err == nil {
		t.Error("short feature vector should fail")
	}
}

func TestWriteLIBSVMFormat(t *testing.T) {
	recs := []Record{{
		CaseName:   "x",
		Features:   []float64{1.5, 0, 3},
		StableTemp: 55.25,
	}}
	var sb strings.Builder
	if err := WriteLIBSVM(&sb, recs); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(sb.String())
	if got != "55.25 1:1.5 3:3" {
		t.Errorf("libsvm line = %q", got)
	}
	if err := WriteLIBSVM(&sb, nil); err == nil {
		t.Error("empty write should fail")
	}
}
