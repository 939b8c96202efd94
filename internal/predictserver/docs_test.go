package predictserver_test

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"vmtherm/internal/daemon"
	"vmtherm/internal/fleet"
	"vmtherm/internal/predictserver"
)

// apiDocPath locates docs/API.md from the package directory.
const apiDocPath = "../../docs/API.md"

// docRoutePattern matches a backticked "METHOD /path" reference, the form
// docs/API.md uses for every endpoint heading.
var docRoutePattern = regexp.MustCompile("`(GET|POST|DELETE) (/[^`\\s]*)`")

// docMetricPattern matches a backticked vmtherm_* metric family name
// (label selectors after the name are ignored).
var docMetricPattern = regexp.MustCompile("`(vmtherm_[a-z0-9_]+)")

func readAPIDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("docs/API.md must exist and document every route: %v", err)
	}
	return string(b)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestAPIDocCoversAllRoutes pins docs/API.md to the served surface in both
// directions: every registered route pattern must appear in the doc as a
// backticked "METHOD /path", and every such reference in the doc must be a
// registered route. Adding or removing an endpoint without updating the
// doc fails here.
func TestAPIDocCoversAllRoutes(t *testing.T) {
	doc := readAPIDoc(t)
	documented := map[string]bool{}
	for _, m := range docRoutePattern.FindAllStringSubmatch(doc, -1) {
		documented[m[1]+" "+m[2]] = true
	}

	served := map[string]bool{}
	for _, p := range (&predictserver.Server{}).RoutePatterns() {
		served[p] = true
	}
	if len(served) == 0 {
		t.Fatal("no served routes")
	}

	for _, p := range sortedKeys(served) {
		if !documented[p] {
			t.Errorf("route %q is served but not documented in docs/API.md", p)
		}
	}
	for _, p := range sortedKeys(documented) {
		if !served[p] {
			t.Errorf("docs/API.md documents %q but the server does not register it", p)
		}
	}
}

// TestAPIDocCoversAllMetrics pins the metrics catalog in docs/API.md to
// the families a fully-featured server (fleet attached, anchor cache
// enabled) actually exposes, in both directions.
func TestAPIDocCoversAllMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	doc := readAPIDoc(t)
	documented := map[string]bool{}
	for _, m := range docMetricPattern.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}

	fc := fleet.DefaultConfig()
	fc.Racks, fc.HostsPerRack, fc.Seed = 1, 2, 11
	rt, err := daemon.StartInProcess(context.Background(), fc, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Shutdown() })
	if err := rt.Loop(context.Background(), daemon.Loop{Rounds: 2, StopOnError: true}); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rw := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rw.Code)
	}

	exposed := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(rw.Body.String()))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" {
			exposed[fields[2]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(exposed) == 0 {
		t.Fatal("no metric families exposed")
	}

	for _, name := range sortedKeys(exposed) {
		if !documented[name] {
			t.Errorf("metric family %q is exposed but not documented in docs/API.md", name)
		}
	}
	for _, name := range sortedKeys(documented) {
		if !exposed[name] {
			t.Errorf("docs/API.md documents metric %q but a fully-featured server does not expose it", name)
		}
	}
}
