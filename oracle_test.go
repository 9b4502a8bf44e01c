package gigapos

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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// productionFiles parses every non-test .go file of the module and
// hands each to fn with its slash-separated directory ("." for the
// root package).
func productionFiles(t *testing.T, fn func(fset *token.FileSet, dir, name string, f *ast.File)) {
	t.Helper()
	if err := walkModule(false, fn); err != nil {
		t.Fatal(err)
	}
}

// walkModule parses every .go file of the module, test files only when
// tests is set, and hands each to fn with its slash-separated directory
// ("." for the root package).
func walkModule(tests bool, fn func(fset *token.FileSet, dir, name string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
// Calls resolve by object, so an import alias hides nothing.
func TestOneSectionCarrier(t *testing.T) {
	kept := map[string]string{
		"internal/sonet": "the section itself, and the Line that wraps it",
		"internal/topo":  "an ADM span maps payload offsets to the TDM slots of many circuits, not one octet stream",
		"benchmark":      "frozen contract; its sonet_imix workload migrates in ROADMAP item 1(a)",
	}
	m := checkModule(t)
	for _, u := range m.uses(func(obj types.Object) bool {
		return isFunc(obj, "repro/internal/sonet", "", "NewFramer", "NewDeframer")
	}) {
		if f := m.meta(u.id); !f.test && kept[f.dir] == "" {
			t.Errorf("%s: sonet.%s outside the one carrier; use sonet.NewLinePair", m.fset.Position(u.id.Pos()), u.obj.Name())
		}
	}
}

// TestOnePort holds a Link to one way onto its line: TransportPort.
// Outside transport_port.go, production code moves octets between a
// Link and anything else — calls (*Link).Output, Input or InputBatch —
// only in the directories kept below, each with its reason; a kept entry
// that no longer does fails too. The three methods calling each other
// are the seam itself. Calls resolve by object, so a method value or an
// import alias hides nothing.
func TestOnePort(t *testing.T) {
	kept := map[string]string{
		"benchmark": "frozen contract; its rungs time the codec with no line under it",
		"examples":  "the hand-wired teaching loops, a Link's two ends with nothing between",
	}
	m := checkModule(t)
	seam := map[string]bool{"Output": true, "Input": true, "InputBatch": true}
	var within []ast.Node // the bodies of the three methods
	for _, f := range m.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && seam[fn.Name.Name] &&
				isFunc(m.info.Defs[fn.Name], "repro", "Link", fn.Name.Name) {
				within = append(within, fn)
			}
		}
	}
	seen := map[string]bool{}
	for _, u := range m.uses(func(obj types.Object) bool {
		return isFunc(obj, "repro", "Link", "Output", "Input", "InputBatch")
	}) {
		f := m.meta(u.id)
		top, _, _ := strings.Cut(f.dir, "/")
		inSeam := slices.ContainsFunc(within, func(n ast.Node) bool { return n.Pos() <= u.id.Pos() && u.id.Pos() < n.End() })
		switch {
		case f.test || inSeam || f.dir == "." && filepath.Base(m.fset.File(u.id.Pos()).Name()) == "transport_port.go":
		case kept[top] != "":
			seen[top] = true
		default:
			t.Errorf("%s: (*Link).%s outside the one port; bind the Link to its line with NewTransportPort", m.fset.Position(u.id.Pos()), u.obj.Name())
		}
	}
	for dir := range kept {
		if !seen[dir] {
			t.Errorf("%s is kept but moves no octets into or out of a Link; drop it from kept", dir)
		}
	}
}

// TestOneP5Assembly holds the cycle-accurate P5 to one assembly: a
// transmitter and a receiver meet a line, and an OAM block taps them,
// only in p5.System, built by NewSystem (loopback) or NewSectionSystem
// (an STM-N section). Outside internal/p5, production code builds a
// Transmitter or a Receiver — by constructor or by composite literal —
// only in the directories kept below, each with its reason; a kept
// entry that no longer does fails too. An OAM literal cannot reach a
// datapath (its taps are unexported): it is a bare register file, as
// the protection drill's. Resolved by object and by type, so an import
// alias hides nothing.
func TestOneP5Assembly(t *testing.T) {
	kept := map[string]string{
		"cmd/p5trace": "its figures trace one unit, cycle by cycle, with nothing around it",
	}
	const p5 = "repro/internal/p5"
	m := checkModule(t)
	seen := map[string]bool{}
	check := func(at ast.Node, what string) {
		f := m.meta(at)
		switch {
		case f.test || f.dir == "internal/p5":
		case kept[f.dir] != "":
			seen[f.dir] = true
		default:
			t.Errorf("%s: %s outside the one P5 assembly; build a p5.System", m.fset.Position(at.Pos()), what)
		}
	}
	for _, u := range m.uses(func(obj types.Object) bool {
		return isFunc(obj, p5, "", "NewTransmitter", "NewReceiver")
	}) {
		check(u.id, "p5."+u.obj.Name())
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if n := namedOf(m.info.Types[lit].Type); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == p5 &&
					(n.Obj().Name() == "Transmitter" || n.Obj().Name() == "Receiver") {
					check(lit, "a p5."+n.Obj().Name()+" literal")
				}
			}
			return true
		})
	}
	for dir := range kept {
		if !seen[dir] {
			t.Errorf("%s is kept but builds no P5 unit; drop it from kept", dir)
		}
	}
}

// TestOneArmingCall holds observation to one way in: the Observe
// family. In the root package's production files no other exported
// function or method takes a registry, a tracer, a recorder or a
// flight/SLO/profile config — directly or inside an Observation — and
// outside the root package and internal/flight nothing builds a
// recorder or an SLO by hand: that is the dance ObservePair writes
// once. Types and calls resolve by object.
func TestOneArmingCall(t *testing.T) {
	family := map[string]string{
		"Link.Observe":          "the end a port wraps: protocol series, events, recorder",
		"TransportPort.Observe": "adds the transport_* series, a selector's own series and the freeze-channel correlation",
		"Watch.ObservePair":     "names both ends, joins the pipes, grades each direction",
		"Engine.Observe":        "the engine series, the stage clock, and ObservePair per port",
	}
	watched := map[string]bool{
		"repro/internal/telemetry.Registry": true, "repro/internal/telemetry.Tracer": true,
		"repro/internal/flight.Recorder": true, "repro/internal/flight.Config": true, "repro/internal/flight.SLOConfig": true,
		"repro/internal/prof.Config": true,
		"repro.Observation":          true,
	}
	m := checkModule(t)
	seen := map[string]bool{}
	for _, f := range m.files {
		if fm := m.meta(f.Name); fm.test || fm.dir != "." {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			sig := m.info.Defs[fn.Name].Type().(*types.Signature)
			arms := false
			for i := 0; i < sig.Params().Len(); i++ {
				walkType(sig.Params().At(i).Type(), func(n *types.Named) {
					arms = arms || n.Obj().Pkg() != nil && watched[n.Obj().Pkg().Path()+"."+n.Obj().Name()]
				})
			}
			name := fn.Name.Name
			if recv := sig.Recv(); recv != nil {
				name = namedOf(recv.Type()).Obj().Name() + "." + name
			}
			switch {
			case arms && family[name] == "":
				t.Errorf("%s: %s takes an observation argument; arm through Observe", m.fset.Position(fn.Pos()), name)
			case arms:
				seen[name] = true
			}
		}
	}
	for _, u := range m.uses(func(obj types.Object) bool {
		return isFunc(obj, "repro/internal/flight", "", "NewRecorder", "NewSLO")
	}) {
		if f := m.meta(u.id); !f.test && f.dir != "." && f.dir != "internal/flight" {
			t.Errorf("%s: %s by hand; gigapos.ObservePair builds and joins the recorders and grades them", m.fset.Position(u.id.Pos()), u.obj.Name())
		}
	}
	for name := range family {
		if !seen[name] {
			t.Errorf("%s is kept as an arming call but no longer exists or takes no observation", name)
		}
	}
}

// TestEveryExportHasACaller holds every capital letter to a reader. It
// covers each exported package-level const, var, type and func, each
// exported method and each untagged exported struct field declared in a
// non-test file of the root package or internal/, resolved by object
// with go/types, so a namesake elsewhere calls nothing. Two rules:
//
//   - (a) some non-test file names it, or it is deleted. benchmark/ is a
//     frozen contract, so its files count.
//   - (b) an internal/ export other than a field is named by some file of
//     another package, tests included, or it loses its capital. The
//     root package is the public API: only (a) holds there.
//
// A type that outside code holds through an exported signature or field
// counts as named there. A method counts as named wherever its type
// implements an interface that declares it and that a non-test file of
// the module uses, the standard library's included (fmt.Stringer and
// error always: fmt calls them by reflection). An unkeyed composite
// literal names every field it sets. Tagged fields are serialised
// documents and exempt, and keptPackages are exempt from (a): their
// experiment is the reason. A kept entry, keyed by qualified name, is
// exempt for its reason; one that is gone, or that no longer breaks a
// rule, fails.
func TestEveryExportHasACaller(t *testing.T) {
	kept := map[string]string{
		"flight.Recorder.Recent":       "the in-memory captures are the evidence when no capture directory is set",
		"sonet.STM4":                   "the STM rate table; the geometry tests walk every level",
		"sonet.STM64":                  "the STM rate table (the scaling study's ceiling)",
		"sonet.DefectMonitor.Raises":   "per-defect counts the chaos drill and the OAM test reconcile the alarm registers against",
		"sonet.DefectMonitor.Clears":   "as Raises",
		"crc.Bitwise16":                "the serial LFSR that defines the register; every table, slicing, matrix and hardware-folded kernel is tested against it",
		"crc.Bitwise32":                "as Bitwise16",
		"ipcp.OptIPAddresses":          "RFC 1332's option-number table; type 1 is the deprecated pairwise form, always rejected",
		"lcp.OptQualityProt":           "RFC 1661's option-number table; type 4 is the option the state-table test sends as unimplemented",
		"p5.System.UseRings":           "the host/P5 shared-memory descriptor rings of the paper's Figure 2 (DESIGN.md S19); the ring tests are the host",
		"synth.CoreTotal":              "E8's core-only 32/8-bit ratio, hand-kept until ROADMAP item 9's one stage graph replaces it",
		"vj.Decompressor.Toss":         "RFC 1144 §4's driver entry for a checksum failure only the end host can see",
		"gigapos.Width8":               "the paper's 8-bit P5 (Table 1), NewSystem's other width; the quickstart builds the 32-bit one",
		"fault.Script.Corrupt":         "octet corruption, a chaos knob the chaos soaks and the SONET differential test drive",
		"fault.Script.Delete":          "a negative byte slip, or a truncation when it runs to a frame boundary: a chaos knob the chaos soak and the SONET differential, line and fuzz tests drive; the scenario language's slip is an insertion",
		"fault.Injector.Done":          "the chaos drills' evidence that a whole script fired",
		"transport.TCP.LocalAddr":      "a :0 listener's bound port, UDP.LocalAddr's twin; TestEngineRemote dials it",
		"crc.Size.Append":              "appends a correct FCS: the codec, channel and P5 tests build their reference frames with it",
		"crc.Parallel32.Update":        "the matrix engine over a buffer; the property tests hold every width to Bitwise32 through it",
		"crc.Parallel16.Update":        "as Parallel32.Update, against Bitwise16",
		"hdlc.ReferenceTokenizer":      "the test oracle (TestOracleStaysAnOracle): the byte-at-a-time tokenizer the fused kernel is checked against",
		"hdlc.ReferenceTokenizer.Feed": "as ReferenceTokenizer",
		"ppp.ReferenceEncode":          "the test oracle (TestOracleStaysAnOracle): the byte-at-a-time encoder the fused kernel is checked against",
		"p5.CtrlLoopback":              "the OAM control register's local-loopback bit, part of the register map; the pair harness steers on it",
		"rtl.Sim.RunUntil":             "the unit tests' clock: rtl's, p5's and the root hardware tests drive a bare unit to a predicate through it",
		"rtl.Source.Pending":           "the drain predicate those unit tests clock a Source against",
		"rtl.Flit.SetByte":             "flips one octet of a line flit, for the fault-injection seam p5.Line.Corrupt (kept in TestEveryFieldIsRead): the P5 soak, golden, system and section tests corrupt the line with it",
	}
	type export struct {
		name                    string // qualified: pkg.Name, pkg.Type.Method, pkg.Type.Field
		pkg, dir                string // import path, directory
		field, nonTest, outside bool
	}
	m := checkModule(t)
	exports := map[token.Pos]*export{}
	for _, f := range m.files {
		fm := m.meta(f.Name)
		if fm.test || fm.dir != "." && !strings.HasPrefix(fm.dir, "internal/") {
			continue
		}
		pkg := f.Name.Name
		def := func(id *ast.Ident, name string, field bool) {
			if id.IsExported() {
				exports[id.Pos()] = &export{name: pkg + "." + name, pkg: fm.pkg, dir: fm.dir, field: field}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if recv := m.info.Defs[d.Name].Type().(*types.Signature).Recv(); recv != nil {
					name = namedOf(recv.Type()).Obj().Name() + "." + name
				}
				def(d.Name, name, false)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							def(id, id.Name, false)
						}
					case *ast.TypeSpec:
						def(s.Name, s.Name.Name, false)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if fld.Tag == nil {
										def(id, s.Name.Name+"."+id.Name, true)
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// Interfaces a non-test file uses, as method sets: those its
	// objects' types mention. A method is its name and its signature,
	// spelled with package paths and without parameter names, so the
	// module's two type-checks of one package agree on it.
	type method struct{ name, sig string }
	sigOf := func(sig *types.Signature) string {
		qual := func(p *types.Package) string { return p.Path() }
		var b strings.Builder
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			b.WriteByte('(')
			for i := 0; i < tup.Len(); i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(types.TypeString(tup.At(i).Type(), qual))
			}
			b.WriteByte(')')
		}
		if sig.Variadic() {
			b.WriteString("...")
		}
		return b.String()
	}
	ifaces := [][]method{{{"String", "()(string)"}}, {{"Error", "()(string)"}}}
	seenIface := map[*types.Interface]bool{}
	useIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			var ms []method
			for i := 0; i < it.NumMethods(); i++ {
				fn := it.Method(i)
				ms = append(ms, method{fn.Name(), sigOf(fn.Type().(*types.Signature))})
			}
			ifaces = append(ifaces, ms)
		}
	}
	for _, u := range m.uses(nil) {
		fm := m.meta(u.id)
		if e := exports[origin(u.obj).Pos()]; e != nil {
			e.nonTest = e.nonTest || !fm.test
			e.outside = e.outside || fm.pkg != e.pkg
		}
		if !fm.test {
			useIface(u.obj.Type())
			walkType(u.obj.Type(), func(n *types.Named) { useIface(n) })
		}
		if u.obj.Pkg() == nil || fm.pkg == u.obj.Pkg().Path() {
			continue
		}
		// Outside code holds every type the object's type mentions.
		walkType(u.obj.Type(), func(n *types.Named) {
			if e := exports[n.Obj().Pos()]; e != nil {
				e.outside = true
			}
		})
	}
	// An unkeyed composite literal names every field it sets.
	for _, f := range m.files {
		if m.meta(f.Name).test {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := m.info.Types[lit].Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if e := exports[st.Field(i).Origin().Pos()]; e != nil {
						e.nonTest = true
					}
				}
			}
			return true
		})
	}
	// A type a non-test file declares that has every method of a used
	// interface, by name and signature, is called through it, promoted
	// methods included.
	for _, obj := range m.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() || m.meta(tn).test {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
	ifaces:
		for _, want := range ifaces {
			var sels []*types.Selection
			for _, w := range want {
				sel := ms.Lookup(tn.Pkg(), w.name)
				if sel == nil || sigOf(sel.Obj().Type().(*types.Signature)) != w.sig {
					continue ifaces
				}
				sels = append(sels, sel)
			}
			for _, sel := range sels {
				if e := exports[origin(sel.Obj()).Pos()]; e != nil {
					e.nonTest, e.outside = true, true
				}
			}
		}
	}

	var bad []string
	found := map[string]bool{}
	for pos, e := range exports {
		why := ""
		switch {
		case !e.nonTest && keptPackages[e.dir] == "":
			why = "no non-test file names it; delete it or keep it with a reason"
		case e.dir != "." && !e.field && !e.outside:
			why = "no file outside its package names it; unexport it"
		}
		if kept[e.name] != "" {
			found[e.name] = true
			if why == "" {
				bad = append(bad, m.fset.Position(pos).String()+": "+e.name+" is kept but breaks no rule; drop it from kept")
			}
			continue
		}
		if why != "" {
			bad = append(bad, m.fset.Position(pos).String()+": exported "+e.name+": "+why)
		}
	}
	for name := range kept {
		if !found[name] {
			bad = append(bad, name+" is kept but no longer exists")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// keptPackages are the packages under internal/ that no production path
// imports, each with the experiment that keeps it. Their exports need no
// non-test caller: the experiment is their reason.
var keptPackages = map[string]string{
	"internal/gfp": "E15's delineation baseline",
}

// TestEveryPackageHasAProductionPath holds every package under internal/
// to a reason to exist: some non-test file outside the package itself,
// examples/ and benchmark/ imports it. A package only examples, the
// frozen benchmark or its own tests reach is deleted, or kept in
// keptPackages with the experiment or plan that needs it; a kept entry
// that is gone, or that has since gained a production importer, fails
// too.
func TestEveryPackageHasAProductionPath(t *testing.T) {
	kept := keptPackages
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

// negotiated keeps a PPP option in both field censuses: only tests set it
// because what a production end asks of its peer is the default.
const negotiated = "a PPP option negotiated with the peer: what this end wants or allows is the peer's to answer, so both sides stay in the language"

// TestEveryConfigFieldIsSet holds every exported field of an exported
// *Config struct to a production caller that sets it. A field counts as
// set by a write the field census sees (fieldAccesses: an assignment, a
// keyed or unkeyed literal, a conversion into its type, &x.f), and only
// in a non-test file outside examples/ and outside the field's own
// package; benchmark/ is a frozen contract, so its files count. Fields
// are resolved with go/types, so a namesake in another struct sets
// nothing. A field only its own package or a test sets is a constant in
// disguise: every configuration it opens is one more the tests must
// cover. A kept entry, keyed by qualified name, is exempt for its
// reason; one that is gone, or that a production caller now sets, fails.
func TestEveryConfigFieldIsSet(t *testing.T) {
	const clock = "a fake-clock seam: the tests drive time and sampling through it, production leaves it zero for the wall clock"
	kept := map[string]string{
		"gigapos.AuthConfig.Require":    negotiated,
		"gigapos.AuthConfig.Secrets":    negotiated,
		"gigapos.AuthConfig.Identity":   negotiated,
		"gigapos.AuthConfig.Secret":     negotiated,
		"gigapos.AuthConfig.Name":       negotiated,
		"gigapos.LinkConfig.MRU":        negotiated,
		"gigapos.LinkConfig.FCS":        negotiated,
		"gigapos.LinkConfig.WantPFC":    negotiated,
		"gigapos.LinkConfig.AllowPFC":   negotiated,
		"gigapos.LinkConfig.WantACFC":   negotiated,
		"gigapos.LinkConfig.AllowACFC":  negotiated,
		"gigapos.LinkConfig.WantVJ":     negotiated,
		"gigapos.LinkConfig.AllowVJ":    negotiated,
		"gigapos.LinkConfig.AssignPeer": negotiated,
		"gigapos.LinkConfig.Auth":       negotiated,
		"gigapos.LinkConfig.Reliable":   negotiated,
		"prof.Config.Clock":             clock,
		"prof.Config.SampleShift":       clock,
		"flight.Config.Clock":           clock,
	}
	type field struct {
		name, pkg string // qualified name; import path of the declaring package
		set       bool
	}
	m := checkModule(t)
	fields := map[token.Pos]*field{}
	for _, d := range m.structFields() {
		if d.meta.test || !d.top || !d.id.IsExported() || !token.IsExported(d.typ) || !strings.HasSuffix(d.typ, "Config") {
			continue
		}
		fields[d.id.Pos()] = &field{name: d.name, pkg: d.meta.pkg}
	}
	m.fieldAccesses(func(fm fileMeta, v *types.Var, how access) {
		if fl := fields[v.Pos()]; fl != nil && how&write != 0 && !fm.test && !strings.HasPrefix(fm.dir, "examples/") && fm.pkg != fl.pkg {
			fl.set = true
		}
	})
	var bad []string
	found := map[string]bool{}
	for pos, fl := range fields {
		if kept[fl.name] != "" {
			found[fl.name] = true
			if fl.set {
				bad = append(bad, m.fset.Position(pos).String()+": "+fl.name+" is kept but a production caller sets it; drop it from kept")
			}
			continue
		}
		if !fl.set {
			bad = append(bad, m.fset.Position(pos).String()+": "+fl.name+" is set by no production file outside its package; make it a constant or delete it")
		}
	}
	for name := range kept {
		if !found[name] {
			bad = append(bad, name+" is kept but no longer exists")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestEveryFieldIsRead holds every struct field to the OAM register
// map's rule: what the program keeps is there to be read, and what it
// reads is there to be set. It covers each untagged, named struct field
// declared in a non-test file outside benchmark/ and examples/ (those
// two still count as readers and setters), resolved by object over the
// one checkModule. Two rules:
//
//   - (a) a field some non-test file writes is read by a non-test file,
//     or it is write-only state: delete it with its writes.
//   - (b) a field of basic or func type some non-test file reads is set
//     by a non-test file, or it is a knob only tests turn: a constant.
//
// Reads and writes are classified by classifyFields, shared with
// TestEveryConfigFieldIsSet and held to its table by TestFieldCensus.
// keptPackages are exempt, as from the export census. A kept entry,
// keyed by qualified name, is exempt for its reason; one that is gone,
// or that no longer breaks a rule, fails.
func TestEveryFieldIsRead(t *testing.T) {
	const (
		drop  = "a drop counter: frames or octets discarded for a named reason, kept for the one drop ledger (ROADMAP item 4)"
		bench = "a testbench instrument: rtl.Source and rtl.Sink drive and drain a unit under test, and the unit tests measure it through them"
	)
	kept := map[string]string{
		"hdlc.Tokenizer.Aborts":            drop,
		"hdlc.Tokenizer.Runts":             drop,
		"hdlc.Tokenizer.Oversize":          drop,
		"gigapos.Link.RxBadAuth":           drop,
		"p5.ring.Drops":                    drop,
		"topo.Node.PassDrops":              drop,
		"topo.Span.DarkFrames":             drop,
		"vj.Decompressor.Tossed":           drop,
		"lcp.Automaton.RxBadPackets":       drop,
		"gigapos.LinkConfig.RestartPeriod": "the frozen benchmark sets it and nothing reads it; it goes with ROADMAP item 1(f)",
		"gigapos.LinkConfig.MRU":           negotiated,
		"gigapos.LinkConfig.FCS":           negotiated,
		"gigapos.LinkConfig.WantPFC":       negotiated,
		"gigapos.LinkConfig.AllowPFC":      negotiated,
		"gigapos.LinkConfig.WantACFC":      negotiated,
		"gigapos.LinkConfig.AllowACFC":     negotiated,
		"gigapos.LinkConfig.WantVJ":        negotiated,
		"gigapos.LinkConfig.AllowVJ":       negotiated,
		"gigapos.AuthConfig.Require":       negotiated,
		"gigapos.AuthConfig.Identity":      negotiated,
		"gigapos.AuthConfig.Secret":        negotiated,
		"gigapos.AuthConfig.Name":          negotiated,
		"p5.Line.Corrupt":                  "a fault-injection seam, beside the fake-clock seams: production leaves it nil; soak_test.go and internal/p5's golden, system and section tests corrupt line flits through it",
		"p5.TxJob.Abort":                   "the abort datapath's test hook: TestSystemAbortedFrameDropped aborts a frame mid-payload through it",
		"p5.TxJob.Address":                 "fakes a foreign sender: the loopback and pair address-policing tests send under another HDLC address through it",
		"main.simConfig.scrape":            "the p5sim tests scrape the live endpoints through it while the run holds them open",
		"transport.Config.jitterSeed":      "the backoff tests pin the reconnect jitter through it; production seeds from the clock",
		"rtl.Source.Sent":                  bench,
		"rtl.Source.StallCycles":           bench,
		"rtl.Sink.GapCounts":               bench,
	}
	m := checkModule(t)
	type field struct {
		decl                                 declaredField
		prodRead, testRead, prodSet, testSet bool
	}
	fields := map[token.Pos]*field{}
	exported := 0
	for _, d := range m.structFields() {
		if top, _, _ := strings.Cut(d.meta.dir, "/"); d.meta.test || d.tagged || top == "benchmark" || top == "examples" || keptPackages[d.meta.dir] != "" {
			continue
		}
		fields[d.id.Pos()] = &field{decl: d}
		if d.id.IsExported() {
			exported++
		}
	}
	m.fieldAccesses(func(fm fileMeta, v *types.Var, how access) {
		f := fields[v.Pos()]
		if f == nil {
			return
		}
		if how&read != 0 {
			f.prodRead, f.testRead = f.prodRead || !fm.test, f.testRead || fm.test
		}
		if how&write != 0 {
			f.prodSet, f.testSet = f.prodSet || !fm.test, f.testSet || fm.test
		}
	})
	t.Logf("%d untagged struct fields in scope, %d of them exported", len(fields), exported)
	var bad []string
	found := map[string]bool{}
	for pos, f := range fields {
		why := ""
		switch {
		case f.prodSet && !f.prodRead && f.testRead:
			why = "rule (a): production writes it and only tests read it; delete it with its writes, or read it"
		case f.prodSet && !f.prodRead:
			why = "rule (a): production writes it and nothing reads it; delete it with its writes"
		case f.prodRead && !f.prodSet && basicOrFunc(f.decl.v.Type()) && f.testSet:
			why = "rule (b): production reads it and only tests set it; make it a constant"
		case f.prodRead && !f.prodSet && basicOrFunc(f.decl.v.Type()):
			why = "rule (b): production reads it and nothing sets it; make it a constant"
		}
		name := f.decl.name
		if kept[name] != "" {
			found[name] = true
			if why == "" {
				bad = append(bad, m.fset.Position(pos).String()+": "+name+" is kept but breaks no rule; drop it from kept")
			}
			continue
		}
		if why != "" {
			bad = append(bad, m.fset.Position(pos).String()+": "+name+": "+why)
		}
	}
	for name := range kept {
		if !found[name] {
			bad = append(bad, name+" is kept but no longer exists")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestFieldCensus holds fieldAccesses' classifier to its rules on small
// packages type-checked in memory: each case names every field it
// declares (fields are named apart) and how the package touches it. A
// lenient classifier would let TestEveryFieldIsRead pass silently.
func TestFieldCensus(t *testing.T) {
	const rw = read | write
	for _, tc := range []struct {
		name, src string
		want      map[string]access // by field name; an absent one is untouched
	}{
		{"map key", `type key struct{ a, b int }
			var m map[key]int
			func get(k key) int { return m[k] }`,
			map[string]access{"key.a": read, "key.b": read}},
		{"map literal key", `type key struct{ a int }
			func lit(k key) map[key]bool { return map[key]bool{k: true} }`,
			map[string]access{"key.a": read}},
		{"== on a struct", `type pt struct{ x int; in inner }
			type inner struct{ y int }
			func eq(p, q pt) bool { return p == q }`,
			map[string]access{"pt.x": read, "pt.in": read, "inner.y": read}},
		{"passed to fmt", `type st struct{ n int; p *deep }
			type deep struct{ v int }
			func show(s st) string { return fmt.Sprint(s) }`,
			map[string]access{"st.n": read, "st.p": read, "deep.v": read}},
		{"passed as a non-empty interface", `type named struct{ n int }
			func (named) String() string { return "" }
			func show(s named) string { var v fmt.Stringer = s; return v.String() }`,
			nil},
		{"&x.f", `type c struct{ n int }
			func addr(x *c) *int { return &x.n }`,
			map[string]access{"c.n": rw}},
		{"x.f += 1, x.f++ and x.f = v", `type c struct{ a, b, d int }
			func bump(x *c) { x.a += 1; x.b++; x.d = 3 }`,
			map[string]access{"c.a": write, "c.b": write, "c.d": write}},
		{"writing through a struct or array field", `type c struct{ in inner; arr [2]int; sl []int }
			type inner struct{ g int }
			func set(x *c) { x.in.g = 1; x.arr[0] = 1; x.sl[0] = 1 }`,
			map[string]access{"c.in": write, "inner.g": write, "c.arr": write, "c.sl": read}},
		{"keyed literal and read by name", `type k struct{ a, b int }
			func f() int { v := k{a: 1}; return v.b }`,
			map[string]access{"k.a": write, "k.b": read}},
		{"unkeyed literal", `type u struct{ a, b int }
			var _ = u{1, 2}`,
			map[string]access{"u.a": write, "u.b": write}},
		{"struct conversion", `type s1 struct{ a int }
			type s2 struct{ a int }
			func conv(x s1) s2 { return s2(x) }`,
			map[string]access{"s1.a": read, "s2.a": write}},
		{"a copy reads nothing", `type cp struct{ a int }
			func dup(x cp) cp { y := x; return y }`,
			nil},
		{"a capped append log", `type lg struct{ evs []int }
			func (l *lg) add(e int) { if len(l.evs) < 8 { l.evs = append(l.evs, e) } }`,
			map[string]access{"lg.evs": write}},
		{"len, cap and append that read", `type lh struct{ evs, other []int }
			func (l *lh) add(e int) int {
				if len(l.evs) < 8 { l.other = append(l.other, e) }
				l.other = append(l.evs, e)
				return cap(l.other)
			}`,
			map[string]access{"lh.evs": read, "lh.other": read | write}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "census.go", "package census\nimport \"fmt\"\nvar _ = fmt.Sprint\n"+tc.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
			if _, err := (&types.Config{Importer: importer.Default()}).Check("census", fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			names := map[*types.Var]string{} // Type.field
			for _, obj := range info.Defs {
				if tn, ok := obj.(*types.TypeName); ok {
					if st, ok := tn.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							names[st.Field(i)] = tn.Name() + "." + st.Field(i).Name()
						}
					}
				}
			}
			got := map[string]access{}
			for _, name := range names {
				got[name] = 0
			}
			classifyFields(info, f, func(v *types.Var, how access) { got[names[v]] |= how })
			for name, how := range got {
				if want := tc.want[name]; how != want {
					t.Errorf("field %s: got %s, want %s", name, how, want)
				}
			}
			for name := range tc.want {
				if _, ok := got[name]; !ok {
					t.Errorf("field %s: not declared", name)
				}
			}
		})
	}
}

// basicOrFunc reports whether a field of type t is a knob: a number, a
// string, a bool or a func, named or not.
func basicOrFunc(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Basic, *types.Signature:
		return true
	}
	return false
}

// declaredField is one named struct field declared in the module.
type declaredField struct {
	id     *ast.Ident
	v      *types.Var
	name   string // pkg.Type.Field; pkg.Type.Outer.Field inside an unnamed struct
	typ    string // the declaring named type; "" inside an unnamed one
	top    bool   // declared directly in typ's struct
	tagged bool
	meta   fileMeta
}

// structFields lists every named struct field declared in the module,
// test files included. A field of an unnamed struct is named after the
// type or variable that holds it, else after the struct itself.
func (m *typedModule) structFields() []declaredField {
	var out []declaredField
	for _, f := range m.files {
		fm := m.meta(f.Name)
		pkg := f.Name.Name
		seen := map[*ast.Ident]bool{}
		var walk func(prefix, typ string, top bool, t ast.Expr)
		walk = func(prefix, typ string, top bool, t ast.Expr) {
			switch t := t.(type) {
			case *ast.StructType:
				for _, fld := range t.Fields.List {
					for _, id := range fld.Names {
						if v, ok := m.info.Defs[id].(*types.Var); ok && id.Name != "_" && !seen[id] {
							seen[id] = true
							out = append(out, declaredField{id: id, v: v, name: prefix + "." + id.Name, typ: typ, top: top, tagged: fld.Tag != nil, meta: fm})
						}
						walk(prefix+"."+id.Name, typ, false, fld.Type)
					}
				}
			case *ast.StarExpr:
				walk(prefix, typ, false, t.X)
			case *ast.ArrayType:
				walk(prefix, typ, false, t.Elt)
			case *ast.MapType:
				walk(prefix, typ, false, t.Value)
			case *ast.ChanType:
				walk(prefix, typ, false, t.Value)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				walk(pkg+"."+n.Name.Name, n.Name.Name, true, n.Type)
			case *ast.ValueSpec:
				if n.Type != nil {
					walk(pkg+"."+n.Names[0].Name, "", false, n.Type)
				}
			case *ast.StructType:
				walk(pkg+".struct", "", false, n)
			}
			return true
		})
	}
	return out
}

// access is how one occurrence touches a struct field.
type access uint8

const (
	read access = 1 << iota
	write
)

func (a access) String() string {
	return [...]string{"untouched", "read", "written", "read and written"}[a]
}

// fieldAccesses calls fn for every read and write of a struct field in
// the module, with the file it is in and the field's declaration.
func (m *typedModule) fieldAccesses(fn func(fm fileMeta, v *types.Var, how access)) {
	for _, f := range m.files {
		fm := m.meta(f.Name)
		classifyFields(m.info, f, func(v *types.Var, how access) { fn(fm, v, how) })
	}
}

// classifyFields walks one type-checked file and calls fn for every read
// and write of a struct field, resolved to its declaration. A write is
// an assignment (=, op=, ++/--, a range variable), a key of a struct
// literal, a position of an unkeyed one, or a conversion into the
// struct's type; writing x.f.g or x.f[i] through a struct or array value
// writes f too. &x.f, slicing an array field and a method called on a
// field held by value (its receiver may be &x.f) are a read and a
// write; every other occurrence is a read. A whole value read where its
// fields cannot be followed by name reads them all: as a map key, an
// operand of == or a switch, or converted to another struct type, every
// field it holds by value (through nested struct and array values);
// converted to an empty interface, where fmt, json and reflection walk
// it, everything it reaches, through pointers, slices and maps too. A
// conversion to a non-empty interface reads nothing: its methods read
// by name. Nor does a plain copy into the same type: the copy's fields
// are the same objects, followed by name wherever they are read.
func classifyFields(info *types.Info, f *ast.File, fn func(v *types.Var, how access)) {
	var stack []ast.Node
	// all reaches every field a value of type t carries: through nested
	// struct and array values, and when deep (reflection) through
	// pointers, slices and maps too.
	all := func(t types.Type, how access, deep bool) {
		seen := map[types.Type]bool{}
		var walk func(t types.Type)
		walk = func(t types.Type) {
			if seen[t] {
				return
			}
			seen[t] = true
			switch u := t.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					fn(u.Field(i).Origin(), how)
					walk(u.Field(i).Type())
				}
			case *types.Array:
				walk(u.Elem())
			case *types.Pointer:
				if deep {
					walk(u.Elem())
				}
			case *types.Slice:
				if deep {
					walk(u.Elem())
				}
			case *types.Map:
				if deep {
					walk(u.Key())
					walk(u.Elem())
				}
			}
		}
		walk(t)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		defer func() { stack = append(stack, n) }()
		switch n := n.(type) {
		case *ast.Ident:
			v, ok := info.Uses[n].(*types.Var)
			if !ok || !v.IsField() {
				break
			}
			switch p := stack[len(stack)-1].(type) {
			case *ast.KeyValueExpr:
				fn(v.Origin(), write)
			case *ast.SelectorExpr:
				if !appendOnly(info, stack, p) {
					fn(v.Origin(), lvalue(info, stack, p))
				}
			default:
				fn(v.Origin(), read)
			}
		case *ast.CompositeLit:
			st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := range n.Elts {
					fn(st.Field(i).Origin(), write)
				}
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
				if _, ok := tv.Type.Underlying().(*types.Struct); ok {
					all(tv.Type, write, false)
				}
			}
		}
		if e, ok := n.(ast.Expr); ok && len(stack) > 0 {
			if tv, ok := info.Types[e]; ok && tv.IsValue() {
				switch whole := wholeRead(info, stack, e); {
				case whole == reflected:
					all(tv.Type, read, true)
				case whole == compared && holdsStruct(tv.Type):
					all(tv.Type, read, false)
				}
			}
		}
		return true
	})
}

// appendOnly reports whether the field selection sel, whose ancestors
// are stack (sel itself on top), reads the field only to grow it: the
// first operand of an append assigned back to the same selection
// (x.f = append(x.f, e)), or the operand of len or cap in the condition
// of an if whose body makes such an append (a capped log). A field
// touched only so is written, never read.
func appendOnly(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) bool {
	builtin := func(e ast.Expr, names ...string) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && slices.Contains(names, b.Name())
	}
	// selfAppend reports whether n assigns append(x.f, …) to x.f.
	selfAppend := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return false
		}
		for i, r := range as.Rhs {
			call, ok := r.(*ast.CallExpr)
			if ok && builtin(call.Fun, "append") && len(call.Args) > 0 &&
				types.ExprString(call.Args[0]) == types.ExprString(sel) && types.ExprString(as.Lhs[i]) == types.ExprString(sel) {
				return true
			}
		}
		return false
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 || call.Args[0] != sel {
		return false
	}
	if builtin(call.Fun, "append") {
		return selfAppend(stack[len(stack)-3])
	}
	if !builtin(call.Fun, "len", "cap") {
		return false
	}
	var cur ast.Node = call
	for i := len(stack) - 3; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.BinaryExpr, *ast.ParenExpr, *ast.UnaryExpr:
			cur = p
			continue
		case *ast.IfStmt:
			if p.Cond != cur {
				return false
			}
			grows := false
			ast.Inspect(p.Body, func(n ast.Node) bool {
				grows = grows || selfAppend(n)
				return !grows
			})
			return grows
		}
		return false
	}
	return false
}

// lvalue classifies the field selection sel, whose ancestors are stack
// (sel itself on top): a write when it is assigned, or when a field or
// array element of its value is; both when its address is taken.
func lvalue(info *types.Info, stack []ast.Node, sel *ast.SelectorExpr) access {
	var cur ast.Expr = sel
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
		case *ast.SelectorExpr:
			v, ok := info.Uses[p.Sel].(*types.Var)
			if !ok || !v.IsField() {
				if _, method := info.Uses[p.Sel].(*types.Func); method && !isPointer(info.TypeOf(cur)) {
					return read | write // the receiver may be its address
				}
				return read
			}
			if isPointer(info.TypeOf(cur)) {
				return read
			}
		case *ast.IndexExpr:
			if _, array := info.TypeOf(cur).Underlying().(*types.Array); !array || p.X != cur {
				return read
			}
		case *ast.SliceExpr:
			if _, array := info.TypeOf(cur).Underlying().(*types.Array); array && p.X == cur {
				return read | write
			}
			return read
		case *ast.AssignStmt:
			if slices.Contains(p.Lhs, cur) {
				return write
			}
			return read
		case *ast.IncDecStmt:
			return write
		case *ast.RangeStmt:
			if p.Key == cur || p.Value == cur {
				return write
			}
			return read
		case *ast.UnaryExpr:
			if p.Op == token.AND {
				return read | write
			}
			return read
		default:
			return read
		}
		cur = stack[i].(ast.Expr)
	}
	return read
}

// whole is how a value is read other than field by field.
type whole uint8

const (
	byName    whole = iota // its fields are followed where they are named
	compared               // compared, hashed or converted: every field it holds by value
	reflected              // converted to an empty interface: everything it reaches
)

// wholeRead classifies how the value e, whose ancestors are stack, is
// read: compared (==, a switch, a map key, converted to another struct
// type) or reflected (converted to an empty interface, where fmt, json
// and the like walk it), or neither.
func wholeRead(info *types.Info, stack []ast.Node, e ast.Expr) whole {
	into := func(t types.Type) whole {
		from := info.TypeOf(e)
		switch {
		case t == nil || types.IsInterface(from):
		case types.IsInterface(t):
			if it, ok := t.Underlying().(*types.Interface); ok && it.Empty() {
				return reflected
			}
		case holdsStruct(t) && !types.Identical(t, from):
			return compared
		}
		return byName
	}
	is := func(yes bool) whole {
		if yes {
			return compared
		}
		return byName
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.BinaryExpr:
		return is(p.Op == token.EQL || p.Op == token.NEQ)
	case *ast.SwitchStmt:
		return is(p.Tag == e)
	case *ast.CaseClause:
		return compared
	case *ast.IndexExpr:
		_, m := info.TypeOf(p.X).Underlying().(*types.Map)
		return is(m && p.Index == e)
	case *ast.KeyValueExpr:
		lit, _ := stack[len(stack)-2].(*ast.CompositeLit)
		if lit == nil {
			break
		}
		switch u := deref(info.TypeOf(lit)).Underlying().(type) {
		case *types.Map:
			if p.Key == e {
				return max(compared, into(u.Key()))
			}
			return into(u.Elem())
		case *types.Slice:
			return into(u.Elem())
		case *types.Array:
			return into(u.Elem())
		case *types.Struct:
			if p.Value == e {
				return into(info.TypeOf(p.Key))
			}
		}
	case *ast.CompositeLit:
		i := slices.Index(p.Elts, e)
		switch u := deref(info.TypeOf(p)).Underlying().(type) {
		case *types.Slice:
			return into(u.Elem())
		case *types.Array:
			return into(u.Elem())
		case *types.Struct:
			if i >= 0 && i < u.NumFields() {
				return into(u.Field(i).Type())
			}
		}
	case *ast.CallExpr:
		i := slices.Index(p.Args, e)
		if i < 0 {
			break
		}
		tv := info.Types[p.Fun]
		if tv.IsType() {
			return into(tv.Type)
		}
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			return into(paramType(sig, i, p.Ellipsis.IsValid()))
		}
	case *ast.AssignStmt:
		if i := slices.Index(p.Rhs, e); i >= 0 && len(p.Lhs) == len(p.Rhs) {
			return into(info.TypeOf(p.Lhs[i]))
		}
	case *ast.ValueSpec:
		if p.Type != nil {
			return into(info.TypeOf(p.Type))
		}
	case *ast.SendStmt:
		if ch, ok := info.TypeOf(p.Chan).Underlying().(*types.Chan); ok && p.Value == e {
			return into(ch.Elem())
		}
	case *ast.ReturnStmt:
		i := slices.Index(p.Results, e)
		for j := len(stack) - 2; j >= 0 && i >= 0; j-- {
			var sig *types.Signature
			switch fn := stack[j].(type) {
			case *ast.FuncLit:
				sig, _ = info.TypeOf(fn).(*types.Signature)
			case *ast.FuncDecl:
				sig, _ = info.Defs[fn.Name].Type().(*types.Signature)
			default:
				continue
			}
			if sig != nil && sig.Results().Len() == len(p.Results) {
				return into(sig.Results().At(i).Type())
			}
			break
		}
	}
	return byName
}

// paramType is the type argument i of a call to sig binds to.
func paramType(sig *types.Signature, i int, ellipsis bool) types.Type {
	n := sig.Params().Len()
	switch {
	case sig.Variadic() && i >= n-1 && !ellipsis:
		return sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	case i < n:
		return sig.Params().At(i).Type()
	}
	return nil
}

// holdsStruct reports whether a value of type t carries struct fields by
// value: a struct, or an array of them.
func holdsStruct(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return true
	case *types.Array:
		return holdsStruct(u.Elem())
	}
	return false
}

// deref is the type t points to, or t.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// typedModule is every package of the module type-checked from source,
// test files (and the gates tag) included, with one Info over all of it.
type typedModule struct {
	fset   *token.FileSet
	files  []*ast.File
	info   *types.Info
	byName map[string]fileMeta // by the file's path in fset
	recv   map[*ast.Ident]bool // the identifiers of every method receiver
}

// fileMeta places one file of the module.
type fileMeta struct {
	dir  string // slash-separated, "." for the root package
	pkg  string // import path of its package; "_test" ends an external test package
	test bool
}

// meta places the file that holds pos.
func (m *typedModule) meta(pos interface{ Pos() token.Pos }) fileMeta {
	return m.byName[m.fset.File(pos.Pos()).Name()]
}

// use is one identifier that names an object.
type use struct {
	id  *ast.Ident
	obj types.Object
}

// uses lists the module's identifiers that name an object keep accepts
// (all of them when keep is nil), in no particular order. A receiver's
// type names nothing: it declares a method.
func (m *typedModule) uses(keep func(types.Object) bool) []use {
	var out []use
	for id, obj := range m.info.Uses {
		if !m.recv[id] && (keep == nil || keep(obj)) {
			out = append(out, use{id, obj})
		}
	}
	return out
}

var module struct {
	once sync.Once
	m    *typedModule
	err  error
}

// checkModule type-checks the module once per test binary, as go test
// builds it for this platform: each directory's package with its
// in-package test files, and its external test package. Module imports
// resolve to the packages checked here without their tests (no external
// test package here uses a test-only export), the standard library to
// the toolchain's export data (go/importer).
func checkModule(t *testing.T) *typedModule {
	t.Helper()
	module.once.Do(func() { module.m, module.err = loadModule() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.m
}

func loadModule() (*typedModule, error) {
	ctx := build.Default
	ctx.BuildTags = append(ctx.BuildTags, "gates")
	type dir struct {
		lib, tests, xtests []*ast.File
		pkg                *types.Package // lib alone, what importers see
	}
	m := &typedModule{
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		byName: map[string]fileMeta{},
		recv:   map[*ast.Ident]bool{},
	}
	dirs := map[string]*dir{} // by import path
	err := walkModule(true, func(fset *token.FileSet, d, name string, f *ast.File) {
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
		fm := fileMeta{dir: d, pkg: path, test: strings.HasSuffix(name, "_test.go")}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			pd.xtests = append(pd.xtests, f)
			fm.pkg += "_test"
		case fm.test:
			pd.tests = append(pd.tests, f)
		default:
			pd.lib = append(pd.lib, f)
		}
		m.files = append(m.files, f)
		m.byName[fset.File(f.Pos()).Name()] = fm
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						m.recv[id] = true
					}
					return true
				})
			}
		}
	})
	if err != nil {
		return nil, err
	}
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
		return nil, fmt.Errorf("type-checking the module: %d errors, the first: %v", len(errs), errs[0])
	}
	return m, nil
}

// importerFunc is a types.Importer in one function.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin is the declaration a use of an instantiated field or method
// resolves to.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}

// namedOf is the named type t is or points to.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isFunc reports whether obj is one of the named functions of the
// package at path: package-level when recv is empty, else methods of
// the type recv.
func isFunc(obj types.Object, path, recv string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != path || !slices.Contains(names, fn.Name()) {
		return false
	}
	r := fn.Type().(*types.Signature).Recv()
	if recv == "" {
		return r == nil
	}
	return r != nil && namedOf(r.Type()) != nil && namedOf(r.Type()).Obj().Name() == recv
}

// walkType calls fn on every named type t mentions without looking
// through a name: pointers, containers, signatures and unnamed structs.
func walkType(t types.Type, fn func(*types.Named)) {
	switch t := t.(type) {
	case *types.Named:
		fn(t)
	case *types.Alias:
		walkType(types.Unalias(t), fn)
	case *types.Pointer:
		walkType(t.Elem(), fn)
	case *types.Slice:
		walkType(t.Elem(), fn)
	case *types.Array:
		walkType(t.Elem(), fn)
	case *types.Chan:
		walkType(t.Elem(), fn)
	case *types.Map:
		walkType(t.Key(), fn)
		walkType(t.Elem(), fn)
	case *types.Signature:
		walkType(t.Params(), fn)
		walkType(t.Results(), fn)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkType(t.At(i).Type(), fn)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			walkType(t.Field(i).Type(), fn)
		}
	}
}
