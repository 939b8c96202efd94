package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOutOfShapeScenarioFailsBeforeFirstRound: a spec file naming a host or
// rack the fleet does not have is refused when the scenario binds — no
// round runs, so no report is written — instead of aborting at the event's
// round halfway through the emergency.
func TestOutOfShapeScenarioFailsBeforeFirstRound(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ event, want string }{
		{`{"round":3,"fault":"sensor","host":"r9-h0","mode":"stuck","value":40}`, `no host "r9-h0"`},
		{`{"round":3,"fault":"load-surge","rack":7}`, "no rack 7"},
	} {
		spec := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(spec, []byte(`{"name":"bad","rounds":4,"events":[`+c.event+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "report.json")
		err := run(context.Background(), []string{"-synthetic", "-racks", "2", "-hosts", "8", "-scenario", spec, "-scenario-out", out})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: run returned %v, want the spec refused naming %s", c.event, err, c.want)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("%s: a scenario report was written, so rounds ran before the refusal", c.event)
		}
	}
}
