package rtbh_test

// The reachability rule (ROADMAP item 6g), held by a test: in every
// non-test file outside bench/, a function exists because
//
//	(1) a binary or bench/ reaches it, or a test that remains
//	(2) compares product code against it as a reference model, or
//	(3) needs it as a read-only observation point or fixture helper for
//	    behaviour product code still has.
//
// Behaviour only tests execute is deleted with its tests; nothing moves
// into a _test.go file to survive. The walker below decides (1);
// reachabilityExempt lists every function that stays for (2) or (3).
//
// Roots: main and init of every package main under cmd/ and examples/,
// every function of bench/'s non-test files, the root package's exported
// functions and the exported methods of its exported types (types it
// re-exports by alias included), every init, every package-level
// initialiser, and the methods with which a type satisfies an interface
// declared outside the repository by a package its own package imports
// (or the predeclared error) — fmt finds a String method no identifier
// names. Edges: every identifier go/types resolves to a repository
// function inside a non-test body; reaching a repository interface's
// method reaches that method on every repository type implementing the
// interface. Generic interfaces are compile-time contracts here
// (analysis.Operator) and fan out to nothing.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachabilityExempt: function → why it stays though no binary reaches
// it. Keys are <package directory>.<receiver>.<name>; the root package's
// directory reads "repro".
var reachabilityExempt = map[string]string{
	// (2) reference models: the plain form a shortcut is pinned to.
	"internal/analysis/events.Index.Interesting":   "(2) reference model: the map-probing form TestCursorMatchesIndexWithPrefilter pins Cursor.InterestingNs to",
	"internal/analysis/events.scanInteresting":     "(2) reference model: Index.Interesting's scan",
	"internal/analysis/events.Index.Lookup":        "(2) reference model: the map-probing, time.Time form Cursor.LookupNs is pinned to (TestCursorLookupMatchesLinearEpisodes) and the federation's cross join is pinned to (TestCrossMatchesReference)",
	"internal/analysis/events.scanLookup":          "(2) reference model: Index.Lookup's scan",
	"internal/analysis/events.Index.EventsFor":     "(2) reference model: the per-prefix event list timealign's time.Time reference walks (TestAddDroppedMatchesTimeReference)",
	"internal/analysis/events.Index.PeriodEnd":     "(2) reference model: the open-event bound of timealign's time.Time reference",
	"internal/analysis/anomaly.Aggregator.Analyze": "(2) reference model: AnalyzeScaled at scale 1, the entry TestAnalyzeMatchesDenseReference compares the dense scan against",
	"internal/analysis/cowtest.Run":                "(2) reference model: the never-sharing mirror every copy-on-write store is driven against",
	"internal/routeserver.Server.MatchFlowRule":    "(2) reference model: the per-packet scan FlowCandidates is held to (TestFlowSpecMatchProperty, TestFlowCandidatesMatchFlowRule)",

	// (3) read-only observation points and fixture helpers.
	"internal/analysis.BoundedSet.Exact":                   "(3) observation point: saturation, asserted by the BoundedSet tests",
	"internal/analysis/anomaly.Aggregator.Slots":           "(3) observation point: retained slot count (TestSlotsAccounting, TestLanesMatchInline)",
	"internal/analysis/hosts.Aggregator.Profiles":          "(3) fixture helper: the unfiltered ProfilesFunc, fixture of the classification tests",
	"internal/analysis/hosts.Aggregator.WhitelistCoverage": "(3) fixture helper: the unfiltered WhitelistCoverageFunc",
	"internal/ipfix.MsgEncoder.SeqNum":                     "(3) observation point: the next sequence number (truncation tests)",
	"internal/ipfix.ReadAll":                               "(3) fixture helper: whole-archive read of the round-trip, robustness and fuzz tests",
	"internal/mrt.ReadAll":                                 "(3) fixture helper: whole-archive read of the round-trip and robustness tests",
	"internal/sampling.Sampler.Rate":                       "(3) observation point: the configured 1:N",
	"internal/live.Sequencer.Pending":                      "(3) observation point: messages held back, asserted by the sequencer property tests",
	"internal/live.Speaker.State":                          "(3) observation point: FSM state the session tests wait on",
	"internal/bgp.MustParsePrefix":                         "(3) fixture helper: prefix literals in tests and fuzz corpus generators",
	"internal/bgp.DecodeFlowSpecUpdate":                    "(3) fixture helper: the fuzz oracle and decoder robustness entry for FlowSpec UPDATEs",
	"internal/routeserver.BlackholeReadyPolicy":            "(3) fixture helper: the policy of a peer that accepts blackholes, across the route-server and fabric tests",
	"internal/routeserver.Server.VisibleTo":                "(3) observation point: the RIB as one peer sees it (TestRIBMatchesReference)",
	"internal/routeserver.Server.ActiveRoutes":             "(3) observation point: the installed routes (TestRIBMatchesReference)",
	"internal/routeserver.Server.NumActiveRoutes":          "(3) observation point: installed-route count (policy matrix, teardown)",
	"internal/routeserver.Server.Metrics":                  "(3) observation point: the server's counters (policy matrix, teardown)",
}

// repoPkg is one type-checked package of the repository's non-test files.
type repoPkg struct {
	dir   string // relative to the repository root, "" for the root package
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// repoLoader type-checks repository packages from source, memoised by
// import path, and leaves everything else to the standard importer.
type repoLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*repoPkg
}

func inRepo(path string) bool { return path == "repro" || strings.HasPrefix(path, "repro/") }

func (l *repoLoader) Import(path string) (*types.Package, error) {
	if !inRepo(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and checks the package at import path "repro[/dir]"; bench/
// is a module of its own whose path maps onto its directory the same way.
func (l *repoLoader) load(path string) (*repoPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	p := &repoPkg{dir: strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")}
	names, err := productFiles(filepath.FromSlash(p.dir))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// productFiles lists dir's non-test Go files the build would compile.
func productFiles(dir string) ([]string, error) {
	if dir == "" {
		dir = "."
	}
	all, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range all {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, filepath.Base(name)); err != nil {
			return nil, err
		} else if ok {
			names = append(names, name)
		}
	}
	return names, nil
}

// funcKey names a function the way reachabilityExempt does.
func funcKey(dir string, f *types.Func) string {
	if dir == "" {
		dir = "repro"
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return dir + "." + t.(*types.Named).Obj().Name() + "." + f.Name()
	}
	return dir + "." + f.Name()
}

// method returns the repository function behind t's method name (through
// a pointer receiver or an embedded field), or nil.
func method(t *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, t.Obj().Pkg(), name)
	if f, ok := obj.(*types.Func); ok && f.Pkg() != nil && inRepo(f.Pkg().Path()) {
		return f.Origin()
	}
	return nil
}

func implements(t *types.Named, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the repository and the standard library it imports from source")
	}
	// The source importer reads build.Default; without cgo it needs no C
	// toolchain to check net and os/user.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	l := &repoLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*repoPkg{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if names, err := productFiles(path); err != nil || len(names) == 0 {
			return err
		}
		_, err = l.load(strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/."))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		universe = map[*types.Func]string{} // every function the rule governs → its key
		lines    = map[*types.Func]int{}
		edges    = map[*types.Func][]*types.Func{} // nil key: referenced from a root
		named    []*types.Named                    // repository types that can implement an interface
	)
	// uses records, under from, every repository function an identifier
	// below n resolves to.
	uses := func(p *repoPkg, from *types.Func, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if f, ok := p.info.Uses[id].(*types.Func); ok && f.Pkg() != nil && inRepo(f.Pkg().Path()) {
					edges[from] = append(edges[from], f.Origin())
				}
			}
			return true
		})
	}
	for _, p := range l.pkgs {
		inBench := p.dir == "bench"
		isMain := p.types.Name() == "main"
		for _, file := range p.files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				switch {
				case !ok:
					uses(p, nil, decl) // package-level initialisers
				case inBench:
					uses(p, nil, fd)
				default:
					f := p.info.Defs[fd.Name].(*types.Func)
					universe[f] = funcKey(p.dir, f)
					lines[f] = fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
					uses(p, f, fd)
					if fd.Recv == nil && (f.Name() == "init" || isMain && f.Name() == "main") {
						edges[nil] = append(edges[nil], f)
					}
				}
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
					named = append(named, n)
				}
			}
			if p.dir != "" || !obj.Exported() {
				continue
			}
			// The root package's exported surface.
			switch obj := obj.(type) {
			case *types.Func:
				edges[nil] = append(edges[nil], obj)
			case *types.TypeName:
				if n, ok := types.Unalias(obj.Type()).(*types.Named); ok {
					for i := 0; i < n.NumMethods(); i++ {
						if m := n.Method(i); m.Exported() && inRepo(m.Pkg().Path()) {
							edges[nil] = append(edges[nil], m.Origin())
						}
					}
				}
			}
		}
	}
	// Methods handed to interfaces declared outside the repository.
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, n := range named {
		outside := []*types.Interface{errorIface}
		for _, imp := range n.Obj().Pkg().Imports() {
			if inRepo(imp.Path()) {
				continue
			}
			for _, name := range imp.Scope().Names() {
				tn, ok := imp.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if in, ok := tn.Type().(*types.Named); ok && in.TypeParams().Len() == 0 {
					if iface, ok := in.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
						outside = append(outside, iface)
					}
				}
			}
		}
		for _, iface := range outside {
			if !implements(n, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				if m := method(n, iface.Method(i).Name()); m != nil {
					edges[nil] = append(edges[nil], m)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	queue := append([]*types.Func(nil), edges[nil]...)
	for len(queue) > 0 {
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[f] {
			continue
		}
		reached[f] = true
		queue = append(queue, edges[f]...)
		recv := f.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		var iface *types.Interface
		switch in := recv.Type().(type) {
		case *types.Named: // a declared interface
			if types.IsInterface(in) && in.TypeParams().Len() == 0 {
				iface = in.Underlying().(*types.Interface)
			}
		case *types.Interface: // an interface literal
			iface = in
		}
		if iface != nil {
			for _, n := range named {
				if implements(n, iface) {
					if m := method(n, f.Name()); m != nil {
						queue = append(queue, m)
					}
				}
			}
		}
	}

	var unreachable []string
	unreachableLines := 0
	keys := map[string]bool{}
	for f, key := range universe {
		keys[key] = true
		if reached[f] {
			if _, listed := reachabilityExempt[key]; listed {
				t.Errorf("%s is exempted but a binary or bench/ reaches it: drop the entry", key)
			}
			continue
		}
		unreachable = append(unreachable, key)
		unreachableLines += lines[f]
		reason, listed := reachabilityExempt[key]
		switch {
		case !listed:
			t.Errorf("%s (%s): no binary, bench/ or root API reaches it and reachabilityExempt does not list it — delete it with its tests, or list it with reason (2) or (3)",
				key, fset.Position(f.Pos()))
		case !strings.HasPrefix(reason, "(2) ") && !strings.HasPrefix(reason, "(3) "):
			t.Errorf("%s: exemption %q names neither reason (2) nor (3)", key, reason)
		}
	}
	for key := range reachabilityExempt {
		if !keys[key] {
			t.Errorf("%s is exempted but no such function exists: drop the entry", key)
		}
	}
	sort.Strings(unreachable)
	t.Logf("%d functions, %d unreachable / %d lines:\n  %s",
		len(universe), len(unreachable), unreachableLines, strings.Join(unreachable, "\n  "))
}
