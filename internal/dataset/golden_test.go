package dataset

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"vmtherm/internal/workload"
)

// recordDigest is the SHA-256 of every record's ψ_stable and feature bits,
// in record order.
func recordDigest(recs []Record) string {
	h := sha256.New()
	var b []byte
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b[:0], math.Float64bits(r.StableTemp))
		for _, f := range r.Features {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildGolden pins the records Build emits, bit for bit: the
// benchmark's 160 training cases (seed 2016) and 40 held-out cases (seed
// 2017), both constant-load, against digests recorded before the event
// queue held values, VMs kept their load sums, constant profiles retired
// and the experiments moved from their own rig onto one-host fleets; and 40
// dynamic cases whose Sine and Bursty drivers run beside the constant ones,
// recorded on the one-host fleet (the rig read its profiles one tick
// earlier).
func TestBuildGolden(t *testing.T) {
	dynamic := workload.DefaultGenOptions()
	dynamic.Dynamic = true
	for _, set := range []struct {
		name string
		opts workload.GenOptions
		seed int64
		n    int
		want string
	}{
		{"train", workload.DefaultGenOptions(), 2016, 160, "636986c16ad0e5ada9279e3926de638deaaf656f1bc5bc5e90808d83d8f3c881"},
		{"held", workload.DefaultGenOptions(), 2017, 40, "613b1b98b12896d42e0b233b6ba92952ae4a69b0bcb4485d247f7725098dfbf4"},
		{"dyn", dynamic, 2016, 40, "9e577dbab997efef29877b0b37bc2dfd3d6d08219d059b6f11a94a833385721d"},
	} {
		cases, err := workload.GenerateCases(set.opts, set.seed, set.name, set.n)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]bool{}
		for _, c := range cases {
			for _, vm := range c.VMs {
				for _, ts := range vm.Tasks {
					kinds[fmt.Sprintf("%T", ts.Profile)] = true
				}
			}
		}
		if set.opts.Dynamic && !(kinds["workload.Sine"] && kinds["workload.Bursty"] && kinds["workload.Constant"]) {
			t.Errorf("%s: profiles %v, want Sine, Bursty and Constant drivers", set.name, kinds)
		}
		recs, err := Build(context.Background(), cases, DefaultBuildOptions(set.seed))
		if err != nil {
			t.Fatal(err)
		}
		if got := recordDigest(recs); got != set.want {
			t.Errorf("%s: record digest %s, want %s", set.name, got, set.want)
		}
	}
}
