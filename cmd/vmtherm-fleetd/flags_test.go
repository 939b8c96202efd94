package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
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

// TestFlagsDocumented pins docs/OPERATIONS.md's flag table to the
// registered flags in both directions, defaults included.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	compareFlags(t, "docs/OPERATIONS.md", docFlagTable(t, string(doc), "### Flags"), registered())
}

// docRow matches one table row whose first cell is a backticked flag.
var docRow = regexp.MustCompile("(?m)^\\| `-([a-z-]+)` \\|(.*)\\|$")

// docFlagTable parses the flag table under heading into name → the default
// (the cell after the flag cell), with backticks stripped and the em-dash
// read as the empty string.
func docFlagTable(t *testing.T, doc, heading string) map[string]string {
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
		def := strings.Trim(strings.TrimSpace(strings.Split(m[2], " | ")[0]), "`")
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
		err := run(context.Background(), []string{"-synthetic", "-racks", "1", "-hosts", "4", "-rounds", "2", c.flag, c.value})
		if err == nil || !strings.Contains(err.Error(), c.field+" must be finite") {
			t.Errorf("%s %s: run returned %v, want the %s refused", c.flag, c.value, err, c.field)
		}
	}
}

// TestIgnoredFlagRefusedBeforeTraining: a flag the chosen source never reads
// used to be dropped in silence — `-synthetic -rounds 1 -trace nothere.csv
// -loop` ran a simulation and exited 0, `-checkpoint-every 5` without
// -checkpoint-file wrote no checkpoint. Each is refused, naming the flag,
// before the model is loaded: the missing -model file never gets opened.
func TestIgnoredFlagRefusedBeforeTraining(t *testing.T) {
	trace := []string{"-source", "trace", "-trace", traceFile}
	none := []string{"-source", "none", "-addr", "127.0.0.1:0"}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "nothere.csv"}, "-trace requires -source trace"},
		{[]string{"-speed", "2"}, "-speed requires -source trace"},
		{[]string{"-loop"}, "-loop requires -source trace"},
		{append([]string{"-scrape-url", "http://127.0.0.1:1/metrics"}, trace...), "-scrape-url requires -source scrape"},
		{[]string{"-scrape-host-label", "node"}, "-scrape-host-label requires -source scrape"},
		{append([]string{"-racks", "2"}, trace...), "-racks requires -source sim"},
		{append([]string{"-hosts", "2"}, trace...), "-hosts requires -source sim"},
		{append([]string{"-hotseed", "2"}, trace...), "-hotseed requires -source sim"},
		{append([]string{"-arrivals", "2"}, trace...), "-arrivals requires -source sim"},
		{append([]string{"-scenario", "crac-failure"}, trace...), "-scenario requires -source sim"},
		{[]string{"-ambient", "20"}, "-ambient requires -source trace or scrape"},
		{[]string{"-checkpoint-every", "5"}, "-checkpoint-every requires -checkpoint-file"},
		{[]string{"-scenario-out", "report.json"}, "-scenario-out requires -scenario"},
		{append([]string{"-checkpoint-file", "ckpt"}, none...), "-checkpoint-file requires a fleet loop (-source sim, trace or scrape, not none)"},
		{append([]string{"-record", "run.csv"}, none...), "-record requires a fleet loop"},
		{append([]string{"-scenario", "crac-failure"}, none...), "-scenario requires a fleet loop"},
		{append([]string{"-synthetic"}, none...), "-synthetic requires a fleet loop"},
		{append([]string{"-rounds", "0"}, none...), "-rounds requires a fleet loop"},
		{[]string{"-source", "nonee"}, `unknown -source "nonee" (want sim, trace, scrape or none)`},
		{[]string{"-source", "none"}, "-source none requires -addr"},
		{[]string{"-source", "none", "-addr", ""}, "-source none requires -addr"},
		{[]string{"-source", "trace"}, "-source trace requires -trace <csv>"},
		{[]string{"-source", "scrape"}, "-source scrape requires -scrape-url <endpoint>"},
		{[]string{"-train-cases", "3"}, "-train-cases is ignored with -model or -synthetic"},
		{[]string{"-synthetic", "-train-cases", "3"}, "-train-cases is ignored with -model or -synthetic"},
		{append([]string{"-train-cases", "3"}, none...), "-train-cases is ignored with -model or -synthetic"},
	} {
		args := append([]string{"-model", filepath.Join(t.TempDir(), "absent.svm")}, c.args...)
		if err := run(context.Background(), args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: run returned %v, want %q", c.args, err, c.want)
		}
	}
}

// TestBadValueRefusedBeforeTraining: a value the fleet configuration
// refuses used to surface only after the fast model had been trained on 24
// experiments. It is refused first, and the error names the flag.
func TestBadValueRefusedBeforeTraining(t *testing.T) {
	logs := captureLog(t)
	for _, c := range []struct{ flag, value string }{
		{"-update", "-1"},
		{"-gap", "-5"},
		{"-gap", "NaN"},
		{"-migrations", "-1"},
	} {
		err := run(context.Background(), []string{"-rounds", "1", "-racks", "1", "-hosts", "2", c.flag, c.value})
		if want := c.flag + " " + c.value + ": fleet: "; err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s %s: run returned %v, want an error starting %q", c.flag, c.value, err, want)
		}
	}
	if strings.Contains(logs.String(), "training") {
		t.Errorf("a refused value trained a model first:\n%s", logs.String())
	}
}

// binary matches a vmtherm binary's name in the docs.
var binary = regexp.MustCompile(`vmtherm-([a-z]+)`)

// inlineCode matches one inline code span.
var inlineCode = regexp.MustCompile("`([^`]+)`")

// TestDocumentedCommandLines: every vmtherm-* binary README.md and
// docs/*.md name has a cmd/ directory, and every fleetd command line in
// their code blocks and spans parses on the registered flags and sets no
// flag the run would ignore. `go test ./cmd/...` lines are not command
// lines of a binary.
func TestDocumentedCommandLines(t *testing.T) {
	files, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(files, "../../README.md") {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for _, line := range strings.Split(strings.ReplaceAll(string(doc), "\\\n", " "), "\n") {
			if strings.HasPrefix(line, "```") {
				fenced = !fenced
				continue
			}
			if strings.Contains(line, "go test ./cmd/") {
				continue
			}
			for _, m := range binary.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat("../vmtherm-" + m[1]); err != nil {
					t.Errorf("%s: %q names vmtherm-%s, which has no cmd/ directory", path, line, m[1])
				}
			}
			code := []string{line}
			if !fenced {
				code = nil
				for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
				}
			}
			for _, c := range code {
				// A log line ("vmtherm-fleetd: …") is not a command line.
				if _, rest, ok := strings.Cut(c, "vmtherm-fleetd"); ok && (rest == "" || rest[0] == ' ') {
					checkCommandLine(t, path, c, strings.Fields(rest[:strings.IndexAny(rest+"#", "#|&>")]))
				}
			}
		}
	}
}

// checkCommandLine parses one documented fleetd command line's arguments.
func checkCommandLine(t *testing.T, path, line string, args []string) {
	t.Helper()
	fs := flag.NewFlagSet("vmtherm-fleetd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	shared, _ := bindFlags(fs)
	switch err := fs.Parse(args); {
	case err != nil:
		t.Errorf("%s: %q: %v", path, line, err)
	case fs.NArg() > 0:
		t.Errorf("%s: %q: %q is not a flag", path, line, fs.Arg(0))
	default:
		if err := refuseIgnored(fs, shared.Source); err != nil {
			t.Errorf("%s: %q: %v", path, line, err)
		}
	}
}
