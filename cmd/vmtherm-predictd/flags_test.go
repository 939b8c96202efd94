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
	fs := flag.NewFlagSet("vmtherm-predictd", flag.ContinueOnError)
	bindFlags(fs)
	out := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.DefValue })
	return out
}

// TestFlagSurfaceGolden pins every flag name and default to the surface
// captured from `vmtherm-predictd -h` before the flags moved into the shared
// binder (testdata/flags.golden, one name=default per line): operators'
// unit files key on them.
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
// both directions, defaults included: predictd's surface is exactly the
// shared "Fleet flags" table, predictd column.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	compareFlags(t, "docs/OPERATIONS.md", docFlagTable(t, string(doc), "## Fleet flags", 2), registered())
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
