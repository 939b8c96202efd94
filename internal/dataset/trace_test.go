package dataset

import (
	"bytes"
	"strings"
	"testing"

	"vmtherm/internal/telemetry"
)

func TestTraceRoundTrip(t *testing.T) {
	in := []telemetry.Reading{
		{HostID: "r0-h0", AtS: 0, TempC: 41.5, Util: 0.5, MemFrac: 0.25},
		{HostID: "r0-h1", AtS: 0, TempC: 38.25, Util: 0, MemFrac: 0},
		{HostID: "r0-h0", AtS: 5, TempC: 42.125, Util: 0.625, MemFrac: 0.25},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-tripped %d readings, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("reading %d: wrote %+v, read %+v", i, in[i], out[i])
		}
	}
}

func TestTraceRejectsBadInput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err == nil {
		t.Error("empty trace written")
	}
	if err := WriteTrace(&buf, []telemetry.Reading{{AtS: 1}}); err == nil {
		t.Error("hostless reading written")
	}
	for _, bad := range []string{
		"",
		"wrong,header,entirely,x,y\n",
		"host_id,at_s,temp_c,util,mem_frac\n", // header only, no readings
		"host_id,at_s,temp_c,util,mem_frac\nh0,notanumber,1,0,0\n",
		"host_id,at_s,temp_c,util,mem_frac\n,1,1,0,0\n",
	} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("malformed trace %q accepted", bad)
		}
	}
}

// FuzzReadTrace walks a trace CSV — bytes an operator hands -trace — through
// the whole replay path: ReadTrace, NewTraceSource (looping, as with
// -loop) and one Δ_update of Advance. Each stage may refuse the input;
// none may panic, and Advance must come back: its work is bounded by the
// readings times the replays a one-second minimum cycle allows.
func FuzzReadTrace(f *testing.F) {
	const header = "host_id,at_s,temp_c,util,mem_frac\n"
	f.Add(header + "r0-h0,0,41.5,0.5,0.25\nr0-h1,0,38.25,0,0\nr0-h0,5,42.125,0.625,0.25\n")
	f.Add(header + "a,0,40,.5,.5\nb,1e-9,41,.5,.5\n")
	f.Add(header + "a,0,40,.5,.5\nb,1e-300,41,.5,.5\n")
	f.Add(header + "a,NaN,40,.5,.5\nb,Inf,41,.5,.5\n")
	f.Add(header + "a,-1e308,40,.5,.5\nb,1e308,NaN,2,-1\n")
	f.Add(header + "a,5,40,.5,.5\na,1,40,.5,.5\n")
	f.Add("wrong,header,entirely,x,y\n")
	f.Fuzz(func(t *testing.T, csv string) {
		readings, err := ReadTrace(strings.NewReader(csv))
		if err != nil {
			return
		}
		for _, loop := range []bool{true, false} {
			src, err := telemetry.NewTraceSource(readings, telemetry.TraceOptions{Loop: loop})
			if err != nil {
				continue
			}
			emitted := 0
			if err := src.Advance(15, func(telemetry.Reading) bool { emitted++; return true }); err != nil {
				t.Fatalf("Advance(15) over an accepted trace: %v", err)
			}
			if limit := 16 * len(readings); emitted > limit {
				t.Fatalf("one Advance(15) emitted %d readings from a %d-reading trace (limit %d)", emitted, len(readings), limit)
			}
		}
	})
}
