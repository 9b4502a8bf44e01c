package gigapos

import (
	"go/ast"
	"go/parser"
	"go/token"
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
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

// TestObservationExportsHaveCallers keeps the observation surface to
// what something reads: every exported function, method, type,
// constant, variable and untagged struct field defined in
// internal/{flight,prof,telemetry,obsnet,sonet,fault} must be named by
// at least one non-test file of the module besides its own definition. An accessor
// only tests call is either a documented series or dead — delete it,
// unexport it, or move it into the test that needs it. The match is by
// name (go/parser, no type information), so it errs towards silence;
// struct fields with a tag are serialised documents and exempt, as are
// methods the standard library calls through an interface and the
// names kept below, each with its reason.
func TestObservationExportsHaveCallers(t *testing.T) {
	observed := map[string]bool{
		"internal/flight": true, "internal/prof": true,
		"internal/telemetry": true, "internal/obsnet": true,
		"internal/sonet": true, "internal/fault": true,
	}
	viaInterface := map[string]bool{"String": true, "Error": true, "ServeHTTP": true}
	kept := map[string]string{
		"Recent":    "flight.Recorder: the in-memory captures are the evidence when no capture directory is set",
		"STM4":      "sonet.Level: the STM rate table; topo's STM-4 ring test and the geometry tests walk every level",
		"STM64":     "sonet.Level: the STM rate table (the scaling study's ceiling)",
		"Raises":    "sonet.DefectMonitor: per-defect counts the chaos drill and the OAM test reconcile the alarm registers against",
		"Clears":    "sonet.DefectMonitor: as Raises",
		"Truncate":  "fault.Script: frame truncation, a chaos knob TestChaosSoakLinkSelfHealing drives",
		"Randomize": "fault.Transport: the seeded drop/dup/reorder rates TestTransportDupReorderSoakUDP drives",
		"Dup":       "fault.Transport: scripted twin of Randomize's dup rate, pins the adapter's delivery order exactly",
		"Reorder":   "fault.Transport: as Dup, for the one-slot late delivery",
	}

	defined := map[string]token.Position{} // exported name -> a definition site
	defIdent := map[*ast.Ident]bool{}
	uses := map[string]int{}
	productionFiles(t, func(fset *token.FileSet, dir, _ string, f *ast.File) {
		define := func(id *ast.Ident) {
			defIdent[id] = true
			if observed[dir] && id.IsExported() && !viaInterface[id.Name] {
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
