package main

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// registered returns the daemon's whole flag surface as name → default.
func registered() map[string]string {
	fs := flag.NewFlagSet("vmtherm-fleetd", flag.ContinueOnError)
	bindFlags(fs)
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.DefValue })
	return out
}

// TestFlagSurfaceGolden pins every flag name and default to the surface
// captured from `vmtherm-fleetd -h` before the flags moved into the shared
// binder (testdata/flags.golden, one name=default per line): CI, the
// scenario matrix and operators' unit files key on them.
func TestFlagSurfaceGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, def, _ := strings.Cut(line, "=")
		want[name] = def
	}
	compareFlags(t, "testdata/flags.golden", want, registered())
}

// TestFlagsDocumented pins docs/OPERATIONS.md to the registered flags in
// both directions, defaults included: the shared "Fleet flags" table
// (fleetd column) plus fleetd's own table.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := docFlagTable(t, string(doc), "## Fleet flags", 1)
	for name, def := range docFlagTable(t, string(doc), "### Flags", 1) {
		if _, dup := documented[name]; dup {
			t.Errorf("-%s is documented in both tables", name)
		}
		documented[name] = def
	}
	compareFlags(t, "docs/OPERATIONS.md", documented, registered())
}

// docRow matches one table row whose first cell is a backticked flag.
var docRow = regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|(.*)\\|$")

// docFlagTable parses the flag table under heading into name → the default
// in cell col (after the flag cell), with backticks stripped and the
// em-dash read as the empty string.
func docFlagTable(t *testing.T, doc, heading string, col int) map[string]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading+"\n")
	if !ok {
		t.Fatalf("docs/OPERATIONS.md has no %q section", heading)
	}
	if next := strings.Index(section, "\n#"); next >= 0 {
		section = section[:next]
	}
	out := map[string]string{}
	for _, m := range docRow.FindAllStringSubmatch(section, -1) {
		def := strings.Trim(strings.TrimSpace(strings.Split(m[2], " | ")[col-1]), "`")
		if def == "—" {
			def = ""
		}
		out[m[1]] = def
	}
	if len(out) == 0 {
		t.Fatalf("no flag rows under %q", heading)
	}
	return out
}

// compareFlags reports every flag missing from, extra in, or defaulted
// differently in got relative to want (named source).
func compareFlags(t *testing.T, source string, want, got map[string]string) {
	t.Helper()
	for name, def := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s lists -%s, which is not registered", source, name)
		} else if g != def {
			t.Errorf("-%s defaults to %q, %s says %q", name, g, source, def)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("-%s is registered but missing from %s", name, source)
		}
	}
}

// TestNonFiniteFlagFailsBeforeFirstRound: a NaN or infinite interval or
// threshold is refused by the fleet configuration before the first round.
// A NaN -update used to schedule simulator ticks forever (out of memory in
// round 1), and a NaN -threshold or -gap ran blind and exited 0.
func TestNonFiniteFlagFailsBeforeFirstRound(t *testing.T) {
	for _, c := range []struct{ flag, value, field string }{
		{"-update", "NaN", "update interval"},
		{"-update", "+Inf", "update interval"},
		{"-threshold", "NaN", "threshold"},
		{"-gap", "NaN", "gap"},
		{"-gap", "-Inf", "gap"},
	} {
		err := run([]string{"-synthetic", "-racks", "1", "-hosts", "4", "-rounds", "2", c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.field+" must be finite") {
			t.Errorf("%s %s: run returned %v, want the %s refused", c.flag, c.value, err, c.field)
		}
	}
}
