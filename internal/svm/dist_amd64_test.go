//go:build amd64 && !noasm

package svm

import "testing"

// TestExpNegLanesLayout pins the table dist_amd64.s indexes by byte offset
// (row i at 32·i) to expNeg's constants, in the order the assembly expects.
func TestExpNegLanesLayout(t *testing.T) {
	want := [...]float64{expNegMax, expNegInvStep, expNegStep, 1.0 / 120, 1.0 / 24, 1.0 / 6, 0.5, 1}
	if len(expNegLanes) != len(want) {
		t.Fatalf("%d rows, the assembly addresses %d", len(expNegLanes), len(want))
	}
	for i, row := range expNegLanes {
		for lane, v := range row {
			if v != want[i] {
				t.Errorf("row %d lane %d = %v, want %v", i, lane, v, want[i])
			}
		}
	}
}
