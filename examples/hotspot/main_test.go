package main

import (
	"strings"
	"testing"
)

// TestHotspotTable pins what the example prints at seed 11: the
// prediction-driven policy leaves no hotspot where first-fit and
// coolest-inlet leave three each.
func TestHotspotTable(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	const want = `training stable model on 60 simulated experiments...

placing 30 VMs into 3 racks × 4 hosts, hotspot threshold 65 °C

policy            hotspots      max°C     mean°C  rejected
first-fit                3      71.45      68.18         0
coolest-inlet            3      71.85      60.42         0
predicted-temp           0      50.80      49.42         0

prediction-driven placement spreads heat: fewer hotspots and a lower peak.
`
	if got := out.String(); got != want {
		t.Errorf("printed\n%s\nwant\n%s", got, want)
	}
}
