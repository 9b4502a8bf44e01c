package gigapos

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// productionFiles parses every non-test .go file of the module and
// hands each to fn with its slash-separated directory ("." for the
// root package).
func productionFiles(t *testing.T, fn func(fset *token.FileSet, dir, name string, f *ast.File)) {
	t.Helper()
	moduleFiles(t, false, fn)
}

// moduleFiles is productionFiles over test files too when tests is set.
func moduleFiles(t *testing.T, tests bool, fn func(fset *token.FileSet, dir, name string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(fset, filepath.ToSlash(filepath.Dir(path)), d.Name(), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOracleStaysAnOracle holds the framing codec to one production
// path plus one oracle: the Reference* symbols of internal/hdlc and
// internal/ppp (the byte-at-a-time encoder and tokenizer the fused
// kernels are tested against) may be named by tests and by the two
// reference.go files that define them, and by no other file in the
// module.
func TestOracleStaysAnOracle(t *testing.T) {
	codec := map[string]bool{"repro/internal/hdlc": true, "repro/internal/ppp": true}
	productionFiles(t, func(fset *token.FileSet, dir, name string, f *ast.File) {
		inCodec := codec["repro/"+dir]
		if inCodec && name == "reference.go" {
			return
		}
		// The names under which this file sees the codec packages.
		local := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !codec[p] {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			local[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && !inCodec && local[x.Name] {
					id = n.Sel
				}
			case *ast.Ident:
				if inCodec {
					id = n
				}
			}
			if id != nil && strings.HasPrefix(id.Name, "Reference") {
				t.Errorf("%s: production code names the test oracle %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	})
}

// TestOneSectionCarrier holds the PHY to one seam: an STM-N section is
// built by sonet.NewLinePair and driven through transport.LineTransport.
// Outside internal/sonet, production code constructs a bare Framer or
// Deframer only in the directories kept below, each with its reason.
func TestOneSectionCarrier(t *testing.T) {
	kept := map[string]string{
		"internal/sonet": "the section itself, and the Line that wraps it",
		"internal/topo":  "an ADM span maps payload offsets to the TDM slots of many circuits, not one octet stream",
		"internal/pos":   "the PHY of the RTL model is clocked: W line octets per simulated cycle, with wire backpressure",
		"benchmark":      "frozen contract; its sonet_imix workload migrates in ROADMAP item 1(a)",
	}
	productionFiles(t, func(fset *token.FileSet, dir, _ string, f *ast.File) {
		if kept[dir] != "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewFramer" && sel.Sel.Name != "NewDeframer" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sonet" {
				t.Errorf("%s: sonet.%s outside the one carrier; use sonet.NewLinePair", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// TestOneArmingCall holds observation to one way in: the Observe
// family. In the root package's production files no other exported
// function or method takes a registry, a tracer, a recorder or a
// flight/SLO/profile config — directly or inside an Observation — and
// outside the root package and internal/flight nothing builds a
// recorder or an SLO or attaches one to a board by hand: that is the
// dance ObservePair writes once.
func TestOneArmingCall(t *testing.T) {
	family := map[string]string{
		"Link.Observe":          "the end every other kind wraps: protocol series, events, recorder",
		"ProtectedLink.Observe": "adds the aps_* and per-line deframer series",
		"RingLink.Observe":      "adds the link_ring_* selector series",
		"TransportPort.Observe": "adds the transport_* series and the freeze-channel correlation",
		"Watch.ObservePair":     "names both ends, joins the pipes, grades each direction, fills the board",
		"Engine.Observe":        "the engine series, the stage clock, and ObservePair per port",
	}
	watched := map[string]map[string]bool{
		"telemetry": {"Registry": true, "Tracer": true},
		"flight":    {"Recorder": true, "Config": true, "SLOConfig": true},
		"prof":      {"Config": true},
	}
	seen := map[string]bool{}
	productionFiles(t, func(fset *token.FileSet, dir, _ string, f *ast.File) {
		if dir == "." {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				arms := false
				ast.Inspect(fn.Type.Params, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						arms = arms || n.Name == "Observation"
					case *ast.SelectorExpr:
						if x, ok := n.X.(*ast.Ident); ok {
							arms = arms || watched[x.Name][n.Sel.Name]
						}
					}
					return true
				})
				switch {
				case arms && family[name] == "":
					t.Errorf("%s: %s takes an observation argument; arm through Observe", fset.Position(fn.Pos()), name)
				case arms:
					seen[name] = true
				}
			}
			return
		}
		usesFlight := false
		for _, imp := range f.Imports {
			usesFlight = usesFlight || imp.Path.Value == `"repro/internal/flight"`
		}
		if !usesFlight || dir == "internal/flight" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, _ := sel.X.(*ast.Ident)
			byHand := x != nil && x.Name == "flight" && (sel.Sel.Name == "NewRecorder" || sel.Sel.Name == "NewSLO") ||
				sel.Sel.Name == "Attach" || sel.Sel.Name == "AttachSLO"
			if byHand {
				t.Errorf("%s: %s by hand; gigapos.ObservePair builds, joins and boards the recorders", fset.Position(call.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
	for name := range family {
		if !seen[name] {
			t.Errorf("%s is kept as an arming call but no longer exists or takes no observation", name)
		}
	}
}

// TestObservationExportsHaveCallers keeps every internal package's
// surface to what something reads (it began with the observation
// packages, hence the name): every exported function, method, type,
// constant, variable and untagged struct field defined under internal/
// must be named by at least one non-test file of the module besides its
// own definition. An accessor only tests call is either a documented
// series or dead — delete it, unexport it, or move it into the test that
// needs it. The root package is the public API and exempt. The match is by
// name (go/parser, no type information), so it errs towards silence;
// struct fields with a tag are serialised documents and exempt, as are
// methods the standard library calls through an interface and the
// names kept below, each with its reason.
func TestObservationExportsHaveCallers(t *testing.T) {
	viaInterface := map[string]bool{"String": true, "Error": true, "ServeHTTP": true, "Less": true}
	kept := map[string]string{
		"Recent":    "flight.Recorder: the in-memory captures are the evidence when no capture directory is set",
		"STM4":      "sonet.Level: the STM rate table; topo's STM-4 ring test and the geometry tests walk every level",
		"STM64":     "sonet.Level: the STM rate table (the scaling study's ceiling)",
		"Raises":    "sonet.DefectMonitor: per-defect counts the chaos drill and the OAM test reconcile the alarm registers against",
		"Clears":    "sonet.DefectMonitor: as Raises",
		"Truncate":  "fault.Script: frame truncation, a chaos knob TestChaosSoakLinkSelfHealing drives",
		"Randomize": "fault.Transport: the seeded drop/dup/reorder rates TestTransportDupReorderSoakUDP drives",
		"Drop":      "fault.Transport: scripted twin of Randomize's drop rate, pins the adapter's loss exactly",
		"Dup":       "fault.Transport: scripted twin of Randomize's dup rate, pins the adapter's delivery order exactly",
		"Reorder":   "fault.Transport: as Dup, for the one-slot late delivery",

		"Bitwise16":      "crc: the serial LFSR that defines the register; every table, slicing, matrix and hardware-folded kernel is tested against it",
		"Bitwise32":      "crc: as Bitwise16",
		"OptIPAddresses": "ipcp: RFC 1332's option-number table; type 1 is the deprecated pairwise form, always rejected",
		"OptQualityProt": "lcp: RFC 1661's option-number table; type 4 is the option the state-table test sends as unimplemented",
		"UseRings":       "p5.System: the host/P5 shared-memory descriptor rings of the paper's Figure 2 (DESIGN.md S19); the ring tests are the host",
		"CoreTotal":      "synth: E8's core-only 32/8-bit ratio, hand-kept until ROADMAP item 9's one stage graph replaces it",
		"Toss":           "vj.Decompressor: RFC 1144 §4's driver entry for a checksum failure only the end host can see",
	}

	defined := map[string]token.Position{} // exported name -> a definition site
	defIdent := map[*ast.Ident]bool{}
	uses := map[string]int{}
	productionFiles(t, func(fset *token.FileSet, dir, _ string, f *ast.File) {
		define := func(id *ast.Ident) {
			defIdent[id] = true
			if strings.HasPrefix(dir, "internal/") && id.IsExported() && !viaInterface[id.Name] {
				defined[id.Name] = fset.Position(id.Pos())
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				define(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							define(id)
						}
					case *ast.TypeSpec:
						define(s.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								if fld.Tag != nil {
									continue
								}
								for _, id := range fld.Names {
									define(id)
								}
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !defIdent[id] {
				uses[id.Name]++
			}
			return true
		})
	})
	var dead []string
	for name, pos := range defined {
		if uses[name] == 0 && kept[name] == "" {
			dead = append(dead, pos.String()+": exported "+name+" has no non-test caller")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
}

// TestEveryPackageHasAProductionPath holds every package under internal/
// to a reason to exist: some non-test file outside the package itself,
// examples/ and benchmark/ imports it. A package only examples, the
// frozen benchmark or its own tests reach is deleted, or kept below
// with the experiment or plan that needs it; a kept entry that is gone,
// or that has since gained a production importer, fails too.
func TestEveryPackageHasAProductionPath(t *testing.T) {
	kept := map[string]string{
		"internal/pos": "E13's cycle-coupled PHY; BenchmarkSONETCoupledGoodput drives it",
		"internal/gfp": "E15's delineation baseline",
	}
	pkgs := map[string]bool{}
	imported := map[string]bool{}
	productionFiles(t, func(_ *token.FileSet, dir, _ string, f *ast.File) {
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		if top, _, _ := strings.Cut(dir, "/"); top == "benchmark" || top == "examples" {
			return
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p = strings.TrimPrefix(p, "repro/"); p != dir {
				imported[p] = true
			}
		}
	})
	for dir := range pkgs {
		if !imported[dir] && kept[dir] == "" {
			t.Errorf("%s: no production file imports it; delete it or keep it with a reason", dir)
		}
	}
	for dir := range kept {
		switch {
		case !pkgs[dir]:
			t.Errorf("%s is kept but no longer exists", dir)
		case imported[dir]:
			t.Errorf("%s is kept but now has a production importer; drop it from kept", dir)
		}
	}
}

// TestEveryConfigFieldIsSet holds every exported field of an exported
// *Config struct to a caller that sets it: a keyed composite literal or
// an assignment naming that field of that type, somewhere in the module,
// tests, examples and the benchmark included. Fields are resolved with
// go/types, so a namesake in another struct sets nothing. A field
// nothing sets is a constant in disguise.
func TestEveryConfigFieldIsSet(t *testing.T) {
	fields := map[token.Pos]string{} // field declaration -> "Type.Field"
	m := checkModule(t)
	for _, f := range m.files {
		if strings.HasSuffix(m.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						if id.IsExported() {
							fields[id.Pos()] = ts.Name.Name + "." + id.Name
						}
					}
				}
			}
		}
	}
	set := map[token.Pos]bool{}
	setField := func(id *ast.Ident) {
		if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
			set[v.Origin().Pos()] = true
		}
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					setField(id)
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						setField(sel.Sel)
					}
				}
			}
			return true
		})
	}
	var unset []string
	for pos, name := range fields {
		if !set[pos] {
			unset = append(unset, m.fset.Position(pos).String()+": "+name+" is set by no file; make it a constant or delete it")
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Error(u)
	}
}

// typedModule is every package of the module type-checked from source,
// test files (and the gates tag) included, with one Info over all of it.
type typedModule struct {
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
}

// checkModule type-checks the module as go test builds it for this
// platform: each directory's package with its in-package test files,
// and its external test package. Module imports resolve to the
// packages checked here without their tests (no external test package
// here uses a test-only export), the standard library to the
// toolchain's export data (go/importer).
func checkModule(t *testing.T) *typedModule {
	t.Helper()
	ctx := build.Default
	ctx.BuildTags = append(ctx.BuildTags, "gates")
	type dir struct {
		lib, tests, xtests []*ast.File
		pkg                *types.Package // lib alone, what importers see
	}
	m := &typedModule{info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	dirs := map[string]*dir{} // by import path
	moduleFiles(t, true, func(fset *token.FileSet, d, name string, f *ast.File) {
		m.fset = fset
		if ok, err := ctx.MatchFile(d, name); err != nil || !ok {
			return
		}
		path := "repro"
		if d != "." {
			path += "/" + d
		}
		pd := dirs[path]
		if pd == nil {
			pd = &dir{}
			dirs[path] = pd
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			pd.xtests = append(pd.xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			pd.tests = append(pd.tests, f)
		default:
			pd.lib = append(pd.lib, f)
		}
		m.files = append(m.files, f)
	})
	std := importer.Default()
	var errs []error
	var imp importerFunc
	check := func(path string, files []*ast.File) *types.Package {
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
		pkg, _ := conf.Check(path, m.fset, files, m.info)
		return pkg
	}
	imp = func(path string) (*types.Package, error) {
		d := dirs[path]
		if d == nil {
			return std.Import(path)
		}
		if d.pkg == nil {
			d.pkg = check(path, d.lib)
		}
		return d.pkg, nil
	}
	for path, d := range dirs {
		if len(d.tests) > 0 {
			check(path, append(d.lib[:len(d.lib):len(d.lib)], d.tests...))
		} else if len(d.lib) > 0 {
			imp(path)
		}
		if len(d.xtests) > 0 {
			check(path+"_test", d.xtests)
		}
	}
	if len(errs) > 0 {
		t.Fatalf("type-checking the module: %d errors, the first: %v", len(errs), errs[0])
	}
	return m
}

// importerFunc is a types.Importer in one function.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
