package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmtherm/internal/sloharness"
)

// parse binds loadgen's flag surface on a fresh set and parses args.
func parse(t *testing.T, args ...string) *sloFlags {
	t.Helper()
	fs := flag.NewFlagSet("vmtherm-loadgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFlagSurfaceGolden pins every flag name and default
// (testdata/flags.golden, one name=default per line, sorted): CI's slo-smoke
// job, docs/CAPACITY.md and bench/e2e/README.md print these command lines.
func TestFlagSurfaceGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("vmtherm-loadgen", flag.ContinueOnError)
	bindFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { got.WriteString(f.Name + "=" + f.DefValue + "\n") })
	if got.String() != string(golden) {
		t.Errorf("flag surface differs from testdata/flags.golden; registered:\n%s", got.String())
	}
}

// TestInProcessProfileSmoke runs the whole tool once, in process, over the
// two prediction endpoints with one short fixed-rate step each (start = max),
// and reads back the capacity report it wrote.
func TestInProcessProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	out := filepath.Join(t.TempDir(), "capacity.json")
	f := parse(t, "-inprocess", "-endpoints", "stable,session", "-batch", "8",
		"-slo-start", "100", "-slo-max", "100",
		"-slo-warmup", "20ms", "-slo-measure", "100ms", "-slo-cooldown", "20ms", "-out", out)
	var narration strings.Builder
	if err := run(f, &narration); err != nil {
		t.Fatalf("%v\n%s", err, narration.String())
	}
	file, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	report, err := sloharness.ParseReport(file)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{sloharness.EndpointStableBatch, sloharness.EndpointSessionBatch}
	if len(report.Profiles) != len(want) {
		t.Fatalf("report has %d profiles, want %d\n%s", len(report.Profiles), len(want), narration.String())
	}
	for i, p := range report.Profiles {
		if p.Endpoint != want[i] || len(p.Steps) != 1 || p.ItemsPerRequest != 8 {
			t.Errorf("profile %d: endpoint %s, %d steps, %d items/request; want %s, one step, 8",
				i, p.Endpoint, len(p.Steps), p.ItemsPerRequest, want[i])
			continue
		}
		if s := p.Steps[0]; s.Completed == 0 || s.Errors != 0 {
			t.Errorf("%s: %d completed, %d errors in the measured window", p.Endpoint, s.Completed, s.Errors)
		}
	}
}
