package ghsom

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiSurfaceExempt lists the only exported internal names that may have
// no non-test caller, with the reason each stays.
var apiSurfaceExempt = map[string]string{
	"internal/leakcheck.*":             "test support: the goroutine-leak checker",
	"internal/faultinject.*":           "test support: fault points armed by tests",
	"internal/core.GHSOM.Route":        "the tree walk compiled routing is checked against",
	"internal/core.GHSOM.RouteTrained": "the tree walk compiled routing is checked against",
}

// apiDecl is one exported package-level name under internal/.
type apiDecl struct {
	pkg  string // package directory relative to the module root, slash-separated
	recv string // receiver type name for a method, else ""
	name string
	node ast.Node // the declaring node; mentions inside it do not count
	pos  token.Position
}

func (d apiDecl) key() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// apiFile is one parsed non-test file of the module or of servebench.
type apiFile struct {
	pkg  string
	file *ast.File
}

// TestInternalAPIHasNonTestCallers fails when an exported package-level
// function, type, var or const under internal/, or an exported method of
// an exported type there, is mentioned by no non-test file of the module
// or of servebench other than its own declaration. Mentions are matched
// by name without type checking: a package-level name counts as used by
// a bare identifier in its own package or by a selector on an import of
// its package, a method by any selector or identifier of its name. That
// can miss a dead name that shares its name with a used one, but never
// flags a used one.
func TestInternalAPIHasNonTestCallers(t *testing.T) {
	fset := token.NewFileSet()
	var files []apiFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, apiFile{pkg: filepath.ToSlash(filepath.Dir(p)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var decls []apiDecl
	for _, af := range files {
		if !strings.HasPrefix(af.pkg, "internal/") {
			continue
		}
		for _, decl := range af.file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d := apiDecl{pkg: af.pkg, name: decl.Name.Name, node: decl, pos: fset.Position(decl.Pos())}
				if decl.Recv != nil {
					d.recv = recvTypeName(decl.Recv.List[0].Type)
					// A method of an unexported type is reached from
					// outside its package only through an interface.
					if !token.IsExported(d.recv) {
						continue
					}
				}
				if decl.Name.IsExported() {
					decls = append(decls, d)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							decls = append(decls, apiDecl{pkg: af.pkg, name: spec.Name.Name, node: spec, pos: fset.Position(spec.Pos())})
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.IsExported() {
								decls = append(decls, apiDecl{pkg: af.pkg, name: n.Name, node: spec, pos: fset.Position(n.Pos())})
							}
						}
					}
				}
			}
		}
	}

	var unused []string
	for _, d := range decls {
		if exempt(d) {
			continue
		}
		if !mentioned(d, files) {
			unused = append(unused, d.pos.String()+": "+d.key())
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no non-test caller: delete it, or move it into the test file that uses it", u)
	}
}

func exempt(d apiDecl) bool {
	_, whole := apiSurfaceExempt[d.pkg+".*"]
	_, one := apiSurfaceExempt[d.key()]
	return whole || one
}

// recvTypeName returns T for a receiver of type T, *T, T[P] or *T[P].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// mentioned reports whether any non-test file mentions d outside d's own
// declaration. A declared name and a receiver's type are not mentions.
func mentioned(d apiDecl, files []apiFile) bool {
	importPath := "ghsom/" + d.pkg
	for _, af := range files {
		m := mentionFinder{d: d, samePkg: af.pkg == d.pkg}
		for _, imp := range af.file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == importPath {
				q := path.Base(p)
				if imp.Name != nil {
					q = imp.Name.Name
				}
				m.qualifiers = append(m.qualifiers, q)
			}
		}
		if d.recv == "" && !m.samePkg && len(m.qualifiers) == 0 {
			continue
		}
		ast.Walk(&m, af.file)
		if m.found {
			return true
		}
	}
	return false
}

type mentionFinder struct {
	d          apiDecl
	samePkg    bool
	qualifiers []string // names this file gives d's package
	found      bool
}

func (m *mentionFinder) Visit(n ast.Node) ast.Visitor {
	if m.found || n == nil || n == m.d.node {
		return nil
	}
	switch x := n.(type) {
	case *ast.FuncDecl:
		ast.Walk(m, x.Type)
		if x.Body != nil {
			ast.Walk(m, x.Body)
		}
		return nil
	case *ast.SelectorExpr:
		if x.Sel.Name == m.d.name {
			if m.d.recv != "" {
				m.found = true
				return nil
			}
			if id, ok := x.X.(*ast.Ident); ok && slices.Contains(m.qualifiers, id.Name) {
				m.found = true
				return nil
			}
		}
		ast.Walk(m, x.X)
		return nil
	case *ast.Ident:
		if x.Name == m.d.name && (m.samePkg || m.d.recv != "") {
			m.found = true
		}
	}
	return m
}
