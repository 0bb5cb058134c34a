package larpredictor_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAPI lists the internal identifiers that no program calls but that
// tests in another package need, with the test that needs each. Support used
// only by its own package's tests belongs in that package's _test.go files.
var testOnlyAPI = map[string]string{
	"internal/faults.InjectValues":        "internal/nws TestNaNBurstDoesNotPoisonSelection, internal/core TestOnlineHealthTransitionMetrics",
	"internal/chaosproxy.Start":           "cmd/predictd TestClusterSoak, TestChaosSoak, TestPredictdHistorySurvivesKill9",
	"internal/chaosproxy.Proxy.SetTarget": "cmd/predictd TestClusterSoak, TestChaosSoak, TestPredictdHistorySurvivesKill9",
	"internal/timeseries.ReadMultiCSV":    "cmd/tracegen TestRunWholeVMToStdout, TestRunFullSetToDirectory",
	"internal/pca.PCA.Transform":          "internal/core TestTrainMatchesParallelLabeling (train_diff_test.go)",
}

// TestNoDeadInternalAPI fails when code that nothing calls appears: an
// exported identifier under internal/ (top-level, or a method on an exported
// type) with no reference from a non-test file outside its own declaration,
// or an unexported func or method under internal/ or cmd/ that no non-test
// file in its package calls. Methods on types the root package re-exports
// as aliases are library surface and exempt. Every non-test .go file in the
// checkout counts as a caller, the cmd/predictload module and examples/
// included. Methods are matched by name: any selector x.Name outside a
// package qualifier counts as a call of every method called Name (of an
// unexported method, within its package), which also covers methods the
// standard library calls through error, fmt.Stringer and the like.
func TestNoDeadInternalAPI(t *testing.T) {
	s, err := scanModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dead := s.deadIdentifiers()
	for _, id := range dead {
		if _, ok := testOnlyAPI[id]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, or move it into its package's _test.go files", id)
		}
	}
	isDead := make(map[string]bool, len(dead))
	for _, id := range dead {
		isDead[id] = true
	}
	for id, need := range testOnlyAPI {
		switch {
		case !s.declared[id]:
			t.Errorf("allowlist entry %s (for %s) names no declaration: drop it", id, need)
		case !isDead[id]:
			t.Errorf("allowlist entry %s (for %s) now has a non-test caller: drop it", id, need)
		}
	}
}

// decl is one identifier the scan checks.
type decl struct {
	id       string // "dir.Name" or "dir.Recv.Name"
	pkg      string // import path of the declaring package
	name     string
	method   bool
	exported bool
	recv     string // receiver base type name, for methods
}

type scan struct {
	declared map[string]bool
	decls    []decl
	aliased  map[string]bool // "pkgpath.Type" re-exported by the root package

	qualified map[string]bool // "pkgpath.Name" named from another package
	bare      map[string]bool // "pkgpath.Name" named inside its own package
	selectors map[string]bool // any x.Name where x is not an imported package
	pkgSel    map[string]bool // "pkgpath.Name" for those selectors, per package
}

// scanModule parses every non-test .go file under root, skipping
// dot-directories and testdata, and indexes declarations and references.
func scanModule(root string) (*scan, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &scan{
		declared:  map[string]bool{},
		aliased:   map[string]bool{},
		qualified: map[string]bool{},
		bare:      map[string]bool{},
		selectors: map[string]bool{},
		pkgSel:    map[string]bool{},
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		pkg := module
		if dir != "." {
			pkg = module + "/" + dir
		}
		s.indexFile(f, dir, pkg)
		return nil
	})
	return s, err
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", os.ErrNotExist
}

func (s *scan) indexFile(f *ast.File, dir, pkg string) {
	imports := map[string]string{} // local name -> import path
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}

	internal := strings.HasPrefix(dir, "internal/")
	checkUnexported := internal || strings.HasPrefix(dir, "cmd/")
	declIdents := map[*ast.Ident]bool{}
	add := func(d decl) {
		s.declared[d.id] = true
		s.decls = append(s.decls, d)
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			declIdents[gd.Name] = true
			name := gd.Name.Name
			if gd.Recv == nil {
				if (internal && ast.IsExported(name)) || (checkUnexported && !ast.IsExported(name) && name != "init" && name != "main") {
					add(decl{id: dir + "." + name, pkg: pkg, name: name, exported: ast.IsExported(name)})
				}
				continue
			}
			ast.Inspect(gd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					declIdents[id] = true
				}
				return true
			})
			recv := recvTypeName(gd.Recv.List[0].Type)
			if (internal && ast.IsExported(name) && ast.IsExported(recv)) || (checkUnexported && !ast.IsExported(name)) {
				add(decl{id: dir + "." + recv + "." + name, pkg: pkg, name: name, method: true, exported: ast.IsExported(name), recv: recv})
			}
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					declIdents[sp.Name] = true
					if internal && ast.IsExported(sp.Name.Name) {
						add(decl{id: dir + "." + sp.Name.Name, pkg: pkg, name: sp.Name.Name, exported: true})
					}
					if dir == "." && sp.Assign.IsValid() {
						if sel, ok := sp.Type.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
								s.aliased[imports[x.Name]+"."+sel.Sel.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						declIdents[n] = true
						if internal && ast.IsExported(n.Name) {
							add(decl{id: dir + "." + n.Name, pkg: pkg, name: n.Name, exported: true})
						}
					}
				}
			}
		}
	}

	// A selector on an imported package name is a qualified reference; any
	// other selector may call a method. Recursing by hand through X records
	// every link of a chain such as a.b.c.
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				s.qualified[imports[x.Name]+"."+n.Sel.Name] = true
				return false
			}
			s.selectors[n.Sel.Name] = true
			s.pkgSel[pkg+"."+n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declIdents[n] {
				s.bare[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// deadIdentifiers returns, sorted, every checked declaration with no
// non-test reference.
func (s *scan) deadIdentifiers() []string {
	var dead []string
	for _, d := range s.decls {
		var used bool
		switch {
		case d.method && d.exported:
			used = s.aliased[d.pkg+"."+d.recv] || s.selectors[d.name]
		case d.method:
			used = s.pkgSel[d.pkg+"."+d.name]
		default:
			used = s.bare[d.pkg+"."+d.name] || s.qualified[d.pkg+"."+d.name]
		}
		if !used {
			dead = append(dead, d.id)
		}
	}
	sort.Strings(dead)
	return dead
}
