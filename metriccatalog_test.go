package symnet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// metricRegistrars are the obs.Registry methods that create a metric by name.
var metricRegistrars = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "CounterFunc": true}

// TestMetricCatalog holds the README's metric catalog to what the code
// registers, both ways: every name passed to Counter, Gauge, Histogram or
// CounterFunc in non-test Go outside benchmark/ must have a catalog entry,
// and every catalog entry must be such a name, so a metric deleted without
// its row fails too. A name built by fmt.Sprintf reads each %d as <k>; a
// name built as "x." + y is the family x., which covers any entry starting
// with x. and is covered by one. A name held in a variable (the registry
// replaying an absorbed snapshot) is not read.
func TestMetricCatalog(t *testing.T) {
	names, err := registeredMetrics(".")
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	catalog := metricCatalog(string(readme))
	if len(catalog) == 0 {
		t.Fatal("README.md has no metric catalog table")
	}
	var missing []string
	for name, at := range names {
		if !catalogCovers(catalog, name) {
			missing = append(missing, fmt.Sprintf("%s (%s)", name, at))
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("metrics registered but missing from README.md's metric catalog:\n%s", strings.Join(missing, "\n"))
	}
	var stale []string
	for entry := range catalog {
		if !registers(names, entry) {
			stale = append(stale, entry)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("README.md's metric catalog lists metrics no code outside benchmark/ registers:\n%s", strings.Join(stale, "\n"))
	}
	t.Logf("%d registered names, %d catalog entries", len(names), len(catalog))
}

// catalogCovers reports whether the catalog has an entry for name; a family
// (a name ending in ".") is covered by any entry it prefixes.
func catalogCovers(catalog map[string]bool, name string) bool {
	if !strings.HasSuffix(name, ".") {
		return catalog[name]
	}
	for e := range catalog {
		if strings.HasPrefix(e, name) {
			return true
		}
	}
	return false
}

// registers reports whether the registered names cover a catalog entry: by
// name, or as a family (a name ending in ".") the entry starts with.
func registers(names map[string]string, entry string) bool {
	if _, ok := names[entry]; ok {
		return true
	}
	for name := range names {
		if strings.HasSuffix(name, ".") && strings.HasPrefix(entry, name) {
			return true
		}
	}
	return false
}

// registeredMetrics parses the non-test Go files under root, skipping
// benchmark/, and returns each metric name they register with the first
// position that registers it.
func registeredMetrics(root string) (map[string]string, error) {
	names := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "benchmark" || n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
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
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !metricRegistrars[sel.Sel.Name] {
				return true
			}
			name, ok := metricName(call.Args[0])
			if !ok {
				if _, isVar := call.Args[0].(*ast.Ident); !isVar {
					err = fmt.Errorf("%s: cannot read the metric name passed to %s", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			}
			if _, seen := names[name]; !seen {
				names[name] = fset.Position(call.Pos()).String()
			}
			return true
		})
		return err
	})
	return names, err
}

// metricName reads a metric name from its expression: a string literal, a
// fmt.Sprintf with a literal format (%d read as <k>), or a concatenation
// whose leftmost operand is a literal (the family that literal names).
func metricName(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.CallExpr:
		fn, ok := v.Fun.(*ast.SelectorExpr)
		if !ok || fn.Sel.Name != "Sprintf" || len(v.Args) == 0 {
			return "", false
		}
		if pkg, ok := fn.X.(*ast.Ident); !ok || pkg.Name != "fmt" {
			return "", false
		}
		format, ok := metricName(v.Args[0])
		return strings.ReplaceAll(format, "%d", "<k>"), ok
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		for {
			l, ok := v.X.(*ast.BinaryExpr)
			if !ok || l.Op != token.ADD {
				break
			}
			v = l
		}
		lit, ok := v.X.(*ast.BasicLit)
		if !ok {
			return "", false
		}
		return metricName(lit)
	}
	return "", false
}

// metricCatalog returns the names of the README's metric catalog: the
// backquoted entries in the first column of the table after "The metric
// catalog". An entry's "/"-separated tail parts abbreviate siblings of its
// first name: a part starting with "." replaces the first name's last
// dot-separated component (a.b/.c is a.b and a.c), one starting with "_" its
// last underscore-separated one (a.b_in/_out is a.b_in and a.b_out). A
// placeholder <x|y> is each of its alternatives; <k> stands for a number.
func metricCatalog(readme string) map[string]bool {
	names := map[string]bool{}
	_, table, ok := strings.Cut(readme, "The metric catalog")
	if !ok {
		return names
	}
	code := regexp.MustCompile("`([^`]+)`")
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		cells := strings.Split(strings.ReplaceAll(line, `\|`, "\x00"), "|")
		for _, m := range code.FindAllStringSubmatch(cells[1], -1) {
			parts := strings.Split(strings.ReplaceAll(m[1], "\x00", "|"), "/")
			first := parts[0]
			for i, p := range parts {
				switch {
				case i == 0:
				case strings.HasPrefix(p, "."):
					p = first[:strings.LastIndex(first, ".")] + p
				case strings.HasPrefix(p, "_"):
					p = first[:strings.LastIndex(first, "_")] + p
				}
				for _, n := range expandAlternatives(p) {
					names[n] = true
				}
			}
		}
	}
	return names
}

// alternatives matches a <x|y|...> placeholder.
var alternatives = regexp.MustCompile(`<([^<>]*\|[^<>]*)>`)

// expandAlternatives expands each <x|y|...> placeholder of name into its
// alternatives.
func expandAlternatives(name string) []string {
	loc := alternatives.FindStringSubmatchIndex(name)
	if loc == nil {
		return []string{name}
	}
	var out []string
	for _, alt := range strings.Split(name[loc[2]:loc[3]], "|") {
		out = append(out, expandAlternatives(name[:loc[0]]+alt+name[loc[1]:])...)
	}
	return out
}
