package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"vmtherm/internal/daemon"
)

// train runs the binary's whole path on args plus -out into a temporary
// directory and returns the model path and the log.
func train(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "model.svm")
	var logw bytes.Buffer
	err := run(append(args, "-out", out), &logw)
	return out, logw.String(), err
}

func TestTrainWritesLoadableModel(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fast", []string{"-fast", "-cases", "24"}},
		{"refine", []string{"-fast", "-refine", "-cases", "24"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, logs, err := train(t, tc.args...)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, logs)
			}
			if !strings.Contains(logs, "model written to "+out) {
				t.Errorf("log does not report the written model:\n%s", logs)
			}
			m, err := daemon.LoadModel(out)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumSV() == 0 {
				t.Error("loaded model has no support vectors")
			}
		})
	}
}

// Four cases leave three training records after the held-out split, fewer
// than the fast grid's five folds: the grid search's error, not a panic,
// whether the one-stage or the refined search meets it first.
func TestTrainTooFewRecordsForFolds(t *testing.T) {
	for _, args := range [][]string{{"-fast", "-cases", "4"}, {"-fast", "-refine", "-cases", "4"}} {
		_, logs, err := train(t, args...)
		if err == nil || !strings.Contains(err.Error(), "mlgrid: 3 samples cannot fill 5 folds") {
			t.Errorf("%v: run = %v, want mlgrid's fold error\n%s", args, err, logs)
		}
	}
}
