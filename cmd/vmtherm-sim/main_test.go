package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vmtherm/internal/workload"
)

// TestDynamicCSVGolden pins the -dynamic trace, byte for byte, at two
// seeds. Each case runs Bursty tasks on periods that are not whole
// seconds, so the square wave's remainder is pinned with the rest of the
// simulation. The digests were recorded on the one-host fleet; the rig
// before it read its profiles one tick earlier.
func TestDynamicCSVGolden(t *testing.T) {
	golden := map[int64]string{
		1: "06604a98764d983e42ffd92a98759aa9c073f2d420c36659ff45abdaf6642ebf",
		2: "59915dc63dba3aabb9bbd86bf2b3ae6e7187ebe7a044c3d90de618b4413fe3a6",
	}
	for seed, want := range golden {
		var out bytes.Buffer
		if err := run([]string{"-dynamic", "-seed", fmt.Sprint(seed)}, &out); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
			t.Errorf("seed %d: CSV digest %s, want %s", seed, got, want)
		}
		if bursty := burstyPeriods(t, seed); len(bursty) == 0 {
			t.Errorf("seed %d: no Bursty task, the digest does not pin the square wave", seed)
		} else {
			for _, p := range bursty {
				if p == float64(int64(p)) {
					t.Errorf("seed %d: Bursty period %v is a whole number", seed, p)
				}
			}
		}
	}
}

// burstyPeriods returns the periods of the Bursty tasks run picks for seed
// with the default flags and -dynamic.
func burstyPeriods(t *testing.T, seed int64) []float64 {
	t.Helper()
	opts := workload.DefaultGenOptions()
	opts.VMCountMin, opts.VMCountMax = 6, 6
	opts.FanChoices = []int{4}
	opts.AmbientMinC, opts.AmbientMaxC = 22, 22
	opts.Dynamic = true
	c, err := workload.GenerateCase(opts, seed, "sim")
	if err != nil {
		t.Fatal(err)
	}
	var periods []float64
	for _, vm := range c.VMs {
		for _, task := range vm.Tasks {
			if b, ok := task.Profile.(workload.Bursty); ok {
				periods = append(periods, b.Period)
			}
		}
	}
	return periods
}

// TestOutFlagWritesTheSameCSV runs the experiment once to the writer and
// once to -out: the file holds the same bytes, and nothing goes to the
// writer.
func TestOutFlagWritesTheSameCSV(t *testing.T) {
	args := []string{"-vms", "3", "-duration", "900", "-seed", "4"}
	var direct bytes.Buffer
	if err := run(args, &direct); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	var unused bytes.Buffer
	if err := run(append(args, "-out", path), &unused); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, direct.Bytes()) || unused.Len() != 0 {
		t.Errorf("-out file differs from the writer's CSV (%d vs %d bytes; %d bytes to the writer)",
			len(file), direct.Len(), unused.Len())
	}
	rows, err := csv.NewReader(bytes.NewReader(file)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// A header, then one row per 5 s sample over 900 s, both ends included.
	if len(rows) != 1+181 || rows[0][0] != "t_s" {
		t.Errorf("%d rows, header %v", len(rows), rows[0])
	}
}

// TestBadOutPathIsAnError: an -out path that cannot be created is returned
// as an error (main exits 1), not a panic.
func TestBadOutPathIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "trace.csv")
	if err := run([]string{"-duration", "900", "-out", path}, new(bytes.Buffer)); err == nil {
		t.Error("no error for an -out path in a missing directory")
	}
}

// TestNonFiniteRunFlagsAreRefused: a NaN or infinite -duration or -sample,
// or a -duration shorter than t_break, is an error naming the flag (main
// exits 1), returned at once — -duration NaN used to run forever, -sample
// NaN to fail with "empty series", and -duration 300 to write the whole CSV
// before failing with it.
func TestNonFiniteRunFlagsAreRefused(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"duration", "NaN"},
		{"duration", "+Inf"},
		{"duration", "300"},
		{"duration", "599"},
		{"sample", "NaN"},
		{"sample", "+Inf"},
	} {
		done := make(chan error, 1)
		go func() { done <- run([]string{"-" + c.flag, c.value}, new(bytes.Buffer)) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), c.flag) {
				t.Errorf("-%s %s: run returned %v, want an error naming %s", c.flag, c.value, err, c.flag)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("-%s %s: run still going after 10 s", c.flag, c.value)
		}
	}
}

// TestAmbientOutsideCRACRangeRuns: an inlet outside a CRAC's plausible
// supply range is still a valid single-server experiment; the die starts at
// the ambient.
func TestAmbientOutsideCRACRangeRuns(t *testing.T) {
	for _, ambient := range []string{"40", "3"} {
		var out bytes.Buffer
		if err := run([]string{"-ambient", ambient, "-duration", "900"}, &out); err != nil {
			t.Fatalf("-ambient %s: %v", ambient, err)
		}
		rows, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1+181 || rows[1][0] != "0.0" || rows[1][2] != ambient+".000" {
			t.Errorf("-ambient %s: %d rows, first %v", ambient, len(rows), rows[1])
		}
	}
}
