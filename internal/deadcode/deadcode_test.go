// Package deadcode holds the module-wide ratchets. Every function and
// method declared under internal/ must have a caller in a non-test Go file
// of the module, and every exported field of a configuration struct must be
// written by a non-test file outside its own package — or have an entry in
// an allowlist below that says why it stays. The configuration structs are
// found, not listed: see collectSetters. The third ratchet, code size
// against BENCH_TRAJECTORY.json, is in codesize_test.go, and the gofmt
// check in gofmt_test.go.
//
// The first two tests type-check every package of the module from its non-test files,
// once with the default build tags and once with -tags noasm, so a helper
// that only one kernel calls still counts as used. A reference from cmd/,
// examples/ or bench/e2e counts; a function's own body does not. Methods
// that satisfy an interface declared in the module or in a package it
// imports are skipped (the call goes through the interface), as are init and
// the error conventions Error, Unwrap, Is and As. Standard-library packages
// are type-checked from source: nothing is downloaded.
//
//	go test ./internal/deadcode
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// allowed names each function that no non-test file calls but that stays,
// with the reason. Keys are "pkg.Func" or "pkg.Type.Method", pkg being the
// path under internal/.
var allowed = map[string]string{
	"core.Curve.Value":                   "test oracle: the predictors' log-space curve is checked against it",
	"svm.Model.Predict":                  "test oracle: the batch and fused kernels are checked against the one-row predict",
	"thermal.Server.SteadyStateDieTemp":  "test oracle: the closed-form steady state the stepped circuit must reach",
	"svm.RBFKernelName":                  "the golden tests pick their line by the kernel's name",
	"predictserver.Server.RoutePatterns": "the docs drift tests list the served routes with it",
	"core.EstimateTBreak":                "deduces t_break from a trace, as the paper does; fitting Eq. (3)'s shape will call it",
	"mathx.RNG.Bool":                     "the place-stream golden and the host-case tests draw their event mix with it",
	"predictclient.Client.PredictStable": "README promises a typed client for every route: /v1/predict/stable",
	"predictclient.Client.ObserveBatch":  "README promises a typed client for every route: /v1/session/batch/observe",
	"predictclient.Client.Metrics":       "README promises a typed client for every route: /metrics",
}

// errorConventions are the method names the errors package and fmt reach
// through interfaces declared nowhere a type checker can see.
var errorConventions = map[string]bool{"Error": true, "Unwrap": true, "Is": true, "As": true}

// allowedFields names each configuration field that no non-test file
// outside its package writes but that stays, with the reason. Keys are
// "pkg.Type.Field".
var allowedFields = map[string]string{
	"fleet.Config.HorizonS":               "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"fleet.Config.AnchorCacheEntries":     "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"fleet.Config.AnchorQuantUtil":        "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"fleet.Config.AnchorQuantMem":         "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"fleet.Config.AnchorQuantAmbientC":    "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"fleet.Config.FanCount":               "whether the fleet's fan count becomes a flag or a constant is still open",
	"fleet.Config.HostShape":              "whether the fleet's host shape becomes a flag or a constant is still open",
	"core.StableConfig.ScaleLower":        "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"core.StableConfig.ScaleUpper":        "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"mlgrid.Config.Kernel":                "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"mlgrid.Config.MaxIter":               "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"mlgrid.Config.Selection":             "bench/e2e reads it; its setter waits for the benchmark to move off the field",
	"vmm.HostConfig.GHzPerCore":           "whether the host shape becomes a flag or a constant is still open",
	"vmm.HostConfig.CPUOvercommit":        "whether the host shape becomes a flag or a constant is still open",
	"fleet.AdmissionPolicy.MaxQueueDepth": "the place-stream golden sets it in its gated runs",
	"substrate.CRAC.SupplyC":              "live room state: OneHost sets it per case, the scenario faults per round",
	"substrate.CRAC.RecircPerUtil":        "live room state: OneHost sets it per case, the scenario faults per round",
	"dataset.BuildOptions.Seed":           "DefaultBuildOptions fills it from its seed argument",
	"experiments.Fig1aConfig.Seed":        "DefaultFig1aConfig fills it from its seed argument",
	"experiments.Fig1bConfig.Seed":        "DefaultFig1bConfig fills it from its seed argument",
	"experiments.Fig1cConfig.Seed":        "DefaultFig1cConfig fills it from its seed argument",
	"experiments.Fig1cConfig.Cases":       "the Fig 1(c) test shrinks the sweep",
	"experiments.Fig1cConfig.GapsS":       "the Fig 1(c) test shrinks the sweep",
	"experiments.Fig1cConfig.UpdatesS":    "the Fig 1(c) test shrinks the sweep",
	"experiments.Fig1cConfig.TrainCases":  "the Fig 1(c) test shrinks the sweep",
}

var (
	loadOnce sync.Once
	loaded   struct {
		root   string
		passes []*pass
	}
)

// loadModule type-checks the module once per test binary under each set of
// build tags and returns the module root and the passes.
func loadModule(t *testing.T) (string, []*pass) {
	loadOnce.Do(func() {
		root, modPath := moduleRoot(t)
		dirs := packageDirs(t, root)

		// Standard-library packages do not depend on the tags below, so one
		// importer (and its cache) serves both passes. Without cgo it reads
		// the pure-Go files of net and friends instead of running the cgo
		// tool.
		build.Default.CgoEnabled = false
		std := importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom)
		var passes []*pass
		for _, tags := range [][]string{nil, {"noasm"}} {
			p := &pass{
				t: t, root: root, modPath: modPath, tags: tags, std: std,
				fset: token.NewFileSet(), pkgs: map[string]*checked{},
			}
			for _, dir := range dirs {
				p.load(dir)
			}
			passes = append(passes, p)
		}
		loaded.root, loaded.passes = root, passes
	})
	if loaded.passes == nil {
		t.Fatal("the module did not type-check; see the first test that loaded it")
	}
	return loaded.root, loaded.passes
}

func TestNoFunctionOnlyTestsCall(t *testing.T) {
	root, passes := loadModule(t)
	decls := map[string]token.Position{}
	used := map[string]token.Position{}
	skipped := map[string]bool{}
	for _, p := range passes {
		p.collect(decls, used, skipped)
	}

	var unlisted []string
	for key, pos := range decls {
		if skipped[key] {
			continue
		}
		_, isUsed := used[key]
		reason, listed := allowed[key]
		switch {
		case !isUsed && !listed:
			unlisted = append(unlisted, fmt.Sprintf("%s: %s has no caller outside tests", rel(root, pos), key))
		case isUsed && listed:
			t.Errorf("%s: %s is allowlisted but %s calls it; drop its entry", rel(root, pos), key, rel(root, used[key]))
		case listed && reason == "":
			t.Errorf("%s: %s is allowlisted without a reason", allowLine(t, root, key), key)
		}
	}
	slices.Sort(unlisted)
	for _, msg := range unlisted {
		t.Error(msg)
	}
	if len(unlisted) > 0 {
		t.Errorf("%d functions under internal/ have no non-test caller: delete them (and the tests that only they served), or allowlist them with a reason", len(unlisted))
	}
	for key := range allowed {
		if _, ok := decls[key]; !ok || skipped[key] {
			t.Errorf("%s: %s is allowlisted but not declared under internal/, or an interface reaches it; drop its entry", allowLine(t, root, key), key)
		}
	}
}

// TestConfigFieldsHaveSetters fails on any exported field of a
// configuration struct that no non-test file outside the field's package
// writes: a knob nobody can turn is a constant. Writing means a composite-literal key, an assignment
// or increment to the field or to a field inside it, or taking its address
// (flag binding).
func TestConfigFieldsHaveSetters(t *testing.T) {
	root, passes := loadModule(t)
	declared := map[string]token.Position{}
	set := map[string]token.Position{}
	for _, p := range passes {
		p.collectSetters(declared, set)
	}
	if len(declared) == 0 {
		t.Fatal("no configuration fields found")
	}
	var unset []string
	for key, pos := range declared {
		_, isSet := set[key]
		reason, listed := allowedFields[key]
		switch {
		case !isSet && !listed:
			unset = append(unset, fmt.Sprintf("%s: %s has no setter outside its package", rel(root, pos), key))
		case isSet && listed:
			t.Errorf("%s: %s is allowlisted but %s sets it; drop its entry", allowLine(t, root, key), key, rel(root, set[key]))
		case listed && reason == "":
			t.Errorf("%s: %s is allowlisted without a reason", allowLine(t, root, key), key)
		}
	}
	slices.Sort(unset)
	for _, msg := range unset {
		t.Error(msg)
	}
	if len(unset) > 0 {
		t.Errorf("%d configuration fields have no setter outside their package: make them constants, or allowlist them with a reason", len(unset))
	}
	for key := range allowedFields {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s: %s is allowlisted but not an exported field of a configuration struct; drop its entry", allowLine(t, root, key), key)
		}
	}
}

// configSuffixes mark a configuration struct by its type name.
var configSuffixes = []string{"Config", "Options", "Params", "Policy"}

// collectSetters adds this pass's exported fields of the configuration
// structs, keyed "pkg.Type.Field", and the position of a write to each from
// a file outside the field's package. The structs are every exported struct
// type under internal/ whose name ends in one of configSuffixes, and every
// struct type under internal/ that their exported fields reach, through
// pointers, slices, arrays and maps.
func (p *pass) collectSetters(declared, set map[string]token.Position) {
	internal := p.modPath + "/internal/"
	fields := map[*types.Var]string{}
	seen := map[*types.TypeName]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			case *types.Map:
				reach(u.Key())
				t = u.Elem()
				continue
			}
			break
		}
		named, ok := t.(*types.Named)
		if !ok {
			return
		}
		tn := named.Obj()
		st, ok := named.Underlying().(*types.Struct)
		if !ok || seen[tn] || tn.Pkg() == nil || !strings.HasPrefix(tn.Pkg().Path(), internal) {
			return
		}
		seen[tn] = true
		name := strings.TrimPrefix(tn.Pkg().Path(), internal) + "." + tn.Name()
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if !f.Exported() {
				continue
			}
			key := name + "." + f.Name()
			fields[f] = key
			if _, ok := declared[key]; !ok {
				declared[key] = p.fset.Position(f.Pos())
			}
			reach(f.Type())
		}
	}
	for _, c := range p.order {
		if !strings.HasPrefix(c.pkg.Path(), internal) {
			continue
		}
		scope := c.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if slices.ContainsFunc(configSuffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
				reach(tn.Type())
			}
		}
	}
	for _, c := range p.order {
		write := func(f *types.Var, at token.Pos) {
			if key, ok := fields[f]; ok && f.Pkg() != c.pkg {
				if _, seen := set[key]; !seen {
					set[key] = p.fset.Position(at)
				}
			}
		}
		// lhs records every field an assignment to e writes: the selected
		// field and, walking out through x.f, x[i], *x and (x), each field
		// it sits inside, promoted ones included.
		lhs := func(e ast.Expr) {
			for e != nil {
				switch x := e.(type) {
				case *ast.SelectorExpr:
					if sel := c.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						t := sel.Recv()
						for _, i := range sel.Index() {
							if ptr, ok := t.Underlying().(*types.Pointer); ok {
								t = ptr.Elem()
							}
							f := t.Underlying().(*types.Struct).Field(i)
							write(f, x.Sel.Pos())
							t = f.Type()
						}
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.ParenExpr:
					e = x.X
				default:
					e = nil
				}
			}
		}
		for _, f := range c.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						lhs(n.X)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if f, ok := c.info.Uses[id].(*types.Var); ok && f.IsField() {
							write(f, id.Pos())
						}
					}
				}
				return true
			})
		}
	}
}

// checked is one type-checked package of the module.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// pass type-checks the module under one set of build tags.
type pass struct {
	t       *testing.T
	root    string
	modPath string
	tags    []string
	std     types.ImporterFrom
	fset    *token.FileSet
	pkgs    map[string]*checked // by import path; nil while in progress
	order   []*checked
}

func (p *pass) Import(path string) (*types.Package, error) {
	if path == p.modPath || strings.HasPrefix(path, p.modPath+"/") {
		c := p.load(filepath.Join(p.root, strings.TrimPrefix(path, p.modPath)))
		if c == nil {
			return nil, fmt.Errorf("%s: no non-test Go files for tags %v", path, p.tags)
		}
		return c.pkg, nil
	}
	return p.std.ImportFrom(path, p.root, 0)
}

// load type-checks the package in dir from its non-test files, or returns
// nil when the tags leave it none.
func (p *pass) load(dir string) *checked {
	relDir, _ := filepath.Rel(p.root, dir)
	path := p.modPath
	if relDir != "." {
		path += "/" + filepath.ToSlash(relDir)
	}
	if c, ok := p.pkgs[path]; ok {
		if c == nil {
			p.t.Fatalf("%s: import cycle", path)
		}
		return c
	}
	p.pkgs[path] = nil
	ctx := build.Default
	ctx.BuildTags = p.tags
	bp, err := ctx.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok {
		delete(p.pkgs, path)
		return nil
	}
	if err != nil {
		p.t.Fatalf("%s: %v", relDir, err)
	}
	c := &checked{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			p.t.Fatal(err)
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: p}
	if c.pkg, err = conf.Check(path, p.fset, c.files, c.info); err != nil {
		p.t.Fatalf("type-checking %s with tags %v: %v", path, p.tags, err)
	}
	p.pkgs[path] = c
	p.order = append(p.order, c)
	return c
}

// collect adds this pass's declarations under internal/, its uses of them
// and the methods an interface reaches.
func (p *pass) collect(decls, used map[string]token.Position, skipped map[string]bool) {
	internal := p.modPath + "/internal/"
	body := map[*types.Func]*ast.BlockStmt{}
	var methods []*types.Func
	for _, c := range p.order {
		if !strings.HasPrefix(c.pkg.Path(), internal) {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				key := p.key(fn)
				if _, seen := decls[key]; !seen {
					decls[key] = p.fset.Position(fd.Name.Pos())
				}
				body[fn] = fd.Body
				if fd.Recv != nil {
					if errorConventions[fn.Name()] {
						skipped[key] = true
					}
					methods = append(methods, fn)
				}
			}
		}
	}

	for _, c := range p.order {
		for id, obj := range c.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fn.Pkg() == nil || !strings.HasPrefix(fn.Pkg().Path(), internal) {
				continue
			}
			if b := body[fn]; b != nil && b.Pos() <= id.Pos() && id.Pos() < b.End() {
				continue
			}
			key := p.key(fn)
			if _, seen := used[key]; !seen {
				used[key] = p.fset.Position(id.Pos())
			}
		}
	}

	byName := p.interfaces()
	for _, fn := range methods {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, iface := range byName[fn.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				skipped[p.key(fn)] = true
				break
			}
		}
	}
}

// interfaces indexes, by method name, every interface with methods that the
// module spells out, and every one declared at package level in a package
// the module imports, directly or not.
func (p *pass) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, c := range p.order {
		walk(c.pkg)
		for _, tv := range c.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// key names fn as the allowlist does: "core.Curve.Value".
func (p *pass) key(fn *types.Func) string {
	pkg := strings.TrimPrefix(fn.Pkg().Path(), p.modPath+"/internal/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return pkg + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
}

func moduleRoot(t *testing.T) (root, modPath string) {
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return dir, f[1]
				}
			}
			t.Fatalf("%s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// packageDirs lists every directory of the module that may hold a package.
func packageDirs(t *testing.T, root string) []string {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// allowLine is the file:line of key's entry in one of this file's
// allowlists.
func allowLine(t *testing.T, root, key string) string {
	name, err := filepath.Abs("deadcode_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	where := token.Position{Filename: name}
	ast.Inspect(f, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Value == strconv.Quote(key) {
				where = fset.Position(lit.Pos())
			}
		}
		return true
	})
	return rel(root, where)
}

func rel(root string, pos token.Position) string {
	if r, err := filepath.Rel(root, pos.Filename); err == nil {
		pos.Filename = r
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
