package gigapos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOracleStaysAnOracle holds the framing codec to one production
// path plus one oracle: the Reference* symbols of internal/hdlc and
// internal/ppp (the byte-at-a-time encoder and tokenizer the fused
// kernels are tested against) may be named by tests and by the two
// reference.go files that define them, and by no other file in the
// module.
func TestOracleStaysAnOracle(t *testing.T) {
	codec := map[string]bool{"repro/internal/hdlc": true, "repro/internal/ppp": true}
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
		dir := filepath.ToSlash(filepath.Dir(path))
		inCodec := codec["repro/"+dir]
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			inCodec && d.Name() == "reference.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
