package symnet

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportsAllowlist holds one "path<TAB>Name<TAB>reason" line per export of
// an internal package that no other package's non-test code uses; a method
// is named Type.Method. # starts a comment.
const exportsAllowlist = "EXPORTS_ALLOWLIST.txt"

// stdMethods are method names that standard-library interfaces call, so a
// method of that name is used without any package selecting it.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"GobEncode": true, "GobDecode": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true, "WriteTo": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// TestInternalExports holds every package under internal/ to exporting only
// what another package's non-test code uses — benchmark/, cmd/, examples/,
// the root package or another internal package. It lists each exported
// top-level func, type, var and const that no other package selects as
// pkg.Name (pkg resolved through the file's imports), and each exported
// method of an exported type whose name no other package selects as .Name
// at all; exported names that some other package's tests read, or that a
// kept export's signature needs, are argued for in EXPORTS_ALLOWLIST.txt.
// A flagged name missing from the list fails the test, which prints it as
// an allowlist line without its reason; a listed name that is no longer
// flagged is stale, and a line without a reason is an error.
func TestInternalExports(t *testing.T) {
	flagged, err := unusedInternalExports(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := readExportsAllowlist(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	var missing, stale []string
	for _, k := range flagged {
		if !listed[k] {
			missing = append(missing, k+"\t")
		}
		delete(listed, k)
	}
	for k := range listed {
		stale = append(stale, k)
	}
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("exported but used by no other package's non-test code; unexport, delete, or add to %s with a reason:\n%s",
			exportsAllowlist, strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("stale lines in %s (used elsewhere now, or gone):\n%s", exportsAllowlist, strings.Join(stale, "\n"))
	}
	t.Logf("%d exports of internal packages used by no other package", len(flagged))
}

// readExportsAllowlist returns the "path<TAB>Name" keys of the allowlist.
func readExportsAllowlist(name string) (map[string]bool, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	keys := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, "\t", 3)
		if len(fields) < 3 || strings.TrimSpace(fields[2]) == "" {
			return nil, fmt.Errorf("%s:%d: a line without a reason: %q", name, n, line)
		}
		keys[fields[0]+"\t"+fields[1]] = true
	}
	return keys, sc.Err()
}

// unusedInternalExports parses every Go file of the module rooted at root
// and returns the sorted "dir<TAB>Name" keys of the exports of internal
// packages that no other package's non-test file uses.
func unusedInternalExports(root string) ([]string, error) {
	const module = "symnet"
	type file struct {
		dir string
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{} // dir -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		files = append(files, file{dir, f})
		pkgName[dir] = f.Name.Name
		return nil
	})
	if err != nil {
		return nil, err
	}

	// exports maps each export of an internal package, "dir\tName" or
	// "dir\tType.Method", to its method name ("" for a top-level name).
	exports := map[string]string{}
	selected := map[string]bool{}             // "dir\tName" another package selects as pkg.Name
	selectors := map[string]map[string]bool{} // Name -> dirs of files selecting .Name
	for _, f := range files {
		if strings.HasPrefix(f.dir, "internal/") {
			for _, decl := range f.ast.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						exports[f.dir+"\t"+d.Name.Name] = ""
					} else if recv := recvTypeName(d.Recv.List[0].Type); ast.IsExported(recv) && !stdMethods[d.Name.Name] {
						exports[f.dir+"\t"+recv+"."+d.Name.Name] = d.Name.Name
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								exports[f.dir+"\t"+s.Name.Name] = ""
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									exports[f.dir+"\t"+n.Name] = ""
								}
							}
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> dir
		for _, imp := range f.ast.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if ip != module && !strings.HasPrefix(ip, module+"/") {
				continue
			}
			dir := strings.TrimPrefix(strings.TrimPrefix(ip, module), "/")
			if dir == "" {
				dir = "."
			}
			name := pkgName[dir]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok {
				if dir, ok := imports[x.Name]; ok {
					selected[dir+"\t"+sel.Sel.Name] = true
				}
			}
			if selectors[sel.Sel.Name] == nil {
				selectors[sel.Sel.Name] = map[string]bool{}
			}
			selectors[sel.Sel.Name][f.dir] = true
			return true
		})
	}

	var flagged []string
	for k, method := range exports {
		used := selected[k]
		if method != "" {
			dir, _, _ := strings.Cut(k, "\t")
			for d := range selectors[method] {
				used = used || d != dir
			}
		}
		if !used {
			flagged = append(flagged, k)
		}
	}
	sort.Strings(flagged)
	return flagged, nil
}

// recvTypeName is the base type name of a method receiver: T for T, *T,
// T[P] and *T[P].
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
