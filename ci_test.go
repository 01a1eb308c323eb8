package rtbh_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCINamesExist holds .github/workflows/ci.yml to the tree: its steps
// name tests by hand in -run and -fuzz patterns, and go test passes with
// nothing run when a pattern matches nothing, so a renamed test would
// drop out of CI silently. Every name must be a Test or Fuzz function in
// one of the packages its command lists.
func TestCINamesExist(t *testing.T) {
	yml, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`-(?:run|fuzz)[= ]'?([\w$|^]+)`)
	checked := 0
	for _, line := range strings.Split(string(yml), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		declared := make(map[string]bool)
		for _, arg := range strings.Fields(line) {
			if arg != "." && (!strings.HasPrefix(arg, "./") || strings.HasSuffix(arg, "...")) {
				continue
			}
			files, _ := filepath.Glob(filepath.Join(arg, "*_test.go"))
			for _, file := range files {
				f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
						declared[fn.Name.Name] = true
					}
				}
			}
		}
		for _, m := range pattern.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(m[1], "|") {
				if name = strings.Trim(name, "^$"); name == "XXX" {
					continue // the "run no test" idiom of the fuzz and bench steps
				}
				checked++
				if !declared[name] || !(strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) {
					t.Errorf("ci.yml names %s, which is no Test/Fuzz function of the packages in:\n\t%s", name, strings.TrimSpace(line))
				}
			}
		}
	}
	if checked < 30 {
		t.Errorf("found only %d names: ci.yml's commands are no longer read", checked)
	}
}
