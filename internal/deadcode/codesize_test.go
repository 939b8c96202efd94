package deadcode

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestCodeSizeWithinTrajectory is the code size ratchet (ROADMAP aim 2,
// item 8), run by go test so that tier-1 sees what CI sees. The newest
// entry of BENCH_TRAJECTORY.json records the non-test Go lines of each
// tracked directory, and the test fails when:
//
//   - a tracked directory holds more non-test lines than its entry records
//     (the PR that grows one appends an entry with the new counts and says
//     why in CHANGES.md);
//   - an internal/* or cmd/* directory with non-test Go files has no key,
//     itself or a parent ("cmd"): lines moved into a new package would
//     otherwise look like lines deleted;
//   - a Go file sits at the module root (a re-export facade there is a
//     second name for every type);
//   - a CHANGES.md line "PR N: [perf_opt]" with N >= 16 (the oldest pr the
//     trajectory holds) has no entry with that pr and at least one claim.
//
// A directory's count is the newline count of its non-test .go files
// concatenated, subdirectories included: what
// `find DIR -name '*.go' ! -name '*_test.go' | xargs cat | wc -l` prints.
//
//	go test ./internal/deadcode -run TestCodeSizeWithinTrajectory -v
func TestCodeSizeWithinTrajectory(t *testing.T) {
	root, _ := moduleRoot(t)
	traj, err := os.ReadFile(filepath.Join(root, "BENCH_TRAJECTORY.json"))
	if err != nil {
		t.Fatal(err)
	}
	changes, err := os.ReadFile(filepath.Join(root, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	table, problems, err := codeSize(root, traj, changes)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + table)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestCodeSizeRatchetRules: on a small tree, each of the four rules fails
// the check with a message that names what broke, and a tree within its
// counts passes.
func TestCodeSizeRatchetRules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/a/a.go", "package a\n\nfunc A() {}\n")         // 3 lines
	write("internal/a/sub/s.go", "package sub\n")                  // +1: subdirectories count
	write("internal/a/a_test.go", "package a\n\n\n\n\n\n\n\n\n\n") // test lines do not count
	write("internal/b/b.go", "package b")                          // no final newline: 0 lines
	write("internal/testonly/x_test.go", "package testonly\n")     // no non-test file: no key needed
	write("cmd/tool/main.go", "package main\n\nfunc main() {}\n")  // counted under "cmd"
	const okChanges = "PR 15: [perf_opt] older than the trajectory\nPR 20: [perf_opt] claimed\nPR 21: [simplicity] no claim needed\n"
	traj := func(counts string) []byte {
		return []byte(`{"entries": [{"pr": 20, "claims": [{"metric": "op_ms_p50"}]},
			{"pr": 21, "claims": [], "non_test_lines": {` + counts + `}}]}`)
	}
	const okCounts = `"cmd": 3, "internal/a": 4, "internal/b": 0`

	table, problems, err := codeSize(root, traj(okCounts), []byte(okChanges))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("a tree within its counts fails: %q", problems)
	}
	if want := fmt.Sprintf("%-24s %6d non-test lines (recorded %d)\n", "internal/a", 4, 4); !strings.Contains(table, want) {
		t.Fatalf("table\n%s\nhas no line %q", table, want)
	}

	for _, tc := range []struct {
		name, counts, changes, rootFile, want string
	}{
		{name: "grown", counts: `"cmd": 2, "internal/a": 4, "internal/b": 0`, changes: okChanges,
			want: "cmd grew to 3 non-test lines, BENCH_TRAJECTORY.json records 2"},
		{name: "missing key", counts: `"cmd": 3, "internal/a": 4`, changes: okChanges,
			want: "internal/b has non-test Go files but no count in the newest BENCH_TRAJECTORY.json entry"},
		{name: "unclaimed perf_opt", counts: okCounts, changes: okChanges + "PR 22: [perf_opt] faster, says who\n",
			want: "CHANGES.md marks PR 22 [perf_opt], BENCH_TRAJECTORY.json has no entry for it with a claim"},
		{name: "claimless entry", counts: okCounts, changes: okChanges + "PR 21: [perf_opt] an entry without a claim\n",
			want: "CHANGES.md marks PR 21 [perf_opt], BENCH_TRAJECTORY.json has no entry for it with a claim"},
		{name: "root package", counts: okCounts, changes: okChanges, rootFile: "facade.go",
			want: "Go files at the module root: facade.go"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.rootFile != "" {
				write(tc.rootFile, "package vmtherm\n")
				defer os.Remove(filepath.Join(root, tc.rootFile))
			}
			_, problems, err := codeSize(root, traj(tc.counts), []byte(tc.changes))
			if err != nil {
				t.Fatal(err)
			}
			if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
				t.Fatalf("problems %q, want one naming %q", problems, tc.want)
			}
		})
	}
}

// perfOptLine matches a CHANGES.md line that marks a PR as a performance
// change.
var perfOptLine = regexp.MustCompile(`(?m)^PR ([0-9]+): \[perf_opt\]`)

// trajectoryEntry is what the ratchet reads of one BENCH_TRAJECTORY.json
// entry.
type trajectoryEntry struct {
	PR           int               `json:"pr"`
	Claims       []json.RawMessage `json:"claims"`
	NonTestLines map[string]int    `json:"non_test_lines"`
}

// codeSize checks the tree at root against the newest trajectory entry and
// the CHANGES.md text. It returns the per-directory table and one message
// per broken rule; err is a trajectory that does not parse.
func codeSize(root string, trajectory, changes []byte) (table string, problems []string, err error) {
	var traj struct {
		Entries []trajectoryEntry `json:"entries"`
	}
	if err := json.Unmarshal(trajectory, &traj); err != nil {
		return "", nil, fmt.Errorf("BENCH_TRAJECTORY.json: %w", err)
	}
	if len(traj.Entries) == 0 {
		return "", nil, fmt.Errorf("BENCH_TRAJECTORY.json has no entries")
	}
	budget := traj.Entries[len(traj.Entries)-1].NonTestLines

	rootGo, _ := filepath.Glob(filepath.Join(root, "*.go"))
	if len(rootGo) > 0 {
		names := make([]string, len(rootGo))
		for i, p := range rootGo {
			names[i] = filepath.Base(p)
		}
		problems = append(problems, "Go files at the module root: "+strings.Join(names, " ")+
			" — import the internal package that owns the type")
	}

	for _, parent := range []string{"internal", "cmd"} {
		entries, _ := os.ReadDir(filepath.Join(root, parent))
		for _, e := range entries {
			dir := parent + "/" + e.Name()
			if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
				continue // as the glob internal/*/ would: directories, none hidden
			}
			if _, files, err := nonTestLines(filepath.Join(root, dir)); err != nil {
				return "", nil, err
			} else if files == 0 {
				continue
			}
			covered := false
			for key := range budget {
				covered = covered || strings.HasPrefix(dir+"/", key+"/")
			}
			if !covered {
				problems = append(problems, dir+" has non-test Go files but no count in the newest BENCH_TRAJECTORY.json entry")
			}
		}
	}

	var tb strings.Builder
	keys := make([]string, 0, len(budget))
	for key := range budget {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		lines, _, err := nonTestLines(filepath.Join(root, filepath.FromSlash(key)))
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintf(&tb, "%-24s %6d non-test lines (recorded %d)\n", key, lines, budget[key])
		if lines > budget[key] {
			problems = append(problems, fmt.Sprintf("%s grew to %d non-test lines, BENCH_TRAJECTORY.json records %d", key, lines, budget[key]))
		}
	}

	for _, m := range perfOptLine.FindAllSubmatch(changes, -1) {
		pr, _ := strconv.Atoi(string(m[1]))
		if pr < 16 {
			continue
		}
		claimed := slices.ContainsFunc(traj.Entries, func(e trajectoryEntry) bool {
			return e.PR == pr && len(e.Claims) > 0
		})
		if !claimed {
			problems = append(problems, fmt.Sprintf("CHANGES.md marks PR %d [perf_opt], BENCH_TRAJECTORY.json has no entry for it with a claim", pr))
		}
	}
	return tb.String(), problems, nil
}

// nonTestLines counts the newlines in the non-test .go files under dir,
// subdirectories included, and how many such files there are. A directory
// that does not exist holds none.
func nonTestLines(dir string) (lines, files int, err error) {
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if os.IsNotExist(err) && path == dir {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += bytes.Count(data, []byte{'\n'})
		files++
		return nil
	})
	return lines, files, err
}
