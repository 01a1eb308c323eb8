package rtbh_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// module is the resolver TestCINamesExist and TestDocNames share: every
// .go file, bench/ and tests included, parsed once; types go by name.
type module struct {
	fset     *token.FileSet
	decls    map[string]bool     // every top-level declaration, as "name" and "directory name"
	byName   map[string][]string // package name → its directories; package main is not addressable
	members  map[string]bool     // every type, and its fields and methods as Type.name
	embeds   map[string][]string // type → the types it embeds or aliases
	flags    map[string][]string // package.Function → the flags it defines
	comments []*ast.CommentGroup // of every .go file outside bench/
	files    map[string]bool     // every file name in the tree
}

// flagFunc names the flag and FlagSet methods that define a flag; the
// flag's name is their first string literal argument.
var flagFunc = regexp.MustCompile(`^((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|Func|Var|TextVar)$`)

var loadModule = sync.OnceValues(func() (*module, error) {
	m := &module{fset: token.NewFileSet(), decls: map[string]bool{}, byName: map[string][]string{},
		members: map[string]bool{}, embeds: map[string][]string{}, flags: map[string][]string{}, files: map[string]bool{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		m.files[d.Name()] = true
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err == nil {
			m.add(path, f)
		}
		return err
	})
	return m, err
})

// add indexes the top-level declarations of the file at path, the fields
// and methods of its types, and the flags its functions define.
func (m *module) add(path string, f *ast.File) {
	dir, test := filepath.Dir(path), strings.HasSuffix(path, "_test.go")
	declare := func(name string) { m.decls[name], m.decls[dir+" "+name] = true, true }
	if !strings.HasPrefix(filepath.ToSlash(path), "bench/") {
		m.comments = append(m.comments, f.Comments...)
	}
	pkg := f.Name.Name
	if pkg == "main" {
		pkg = dir // flags are keyed by package.Function, and every binary is a main
	} else if !test && !slices.Contains(m.byName[pkg], dir) {
		m.byName[pkg] = append(m.byName[pkg], dir)
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				m.members[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				continue
			}
			declare(d.Name.Name)
			ast.Inspect(d, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && flagFunc.MatchString(sel.Sel.Name) {
						for _, arg := range call.Args {
							if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
								name, _ := strconv.Unquote(lit.Value)
								m.flags[pkg+"."+d.Name.Name] = append(m.flags[pkg+"."+d.Name.Name], name)
								break
							}
						}
					}
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if s, ok := spec.(*ast.ValueSpec); ok {
					for _, n := range s.Names {
						declare(n.Name)
					}
				}
				s, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				declare(s.Name.Name)
				m.members[s.Name.Name] = true
				var fields []*ast.Field
				switch t := s.Type.(type) {
				case *ast.StructType:
					fields = t.Fields.List
				case *ast.InterfaceType:
					fields = t.Methods.List
				}
				for _, field := range fields {
					for _, n := range field.Names {
						m.members[s.Name.Name+"."+n.Name] = true
					}
					if len(field.Names) == 0 { // embedded: its type names the field
						m.members[s.Name.Name+"."+typeName(field.Type)] = true
						m.embeds[s.Name.Name] = append(m.embeds[s.Name.Name], typeName(field.Type))
					}
				}
				if s.Assign != 0 {
					m.embeds[s.Name.Name] = append(m.embeds[s.Name.Name], typeName(s.Type))
				}
			}
		}
	}
}

// typeName is the name of a type expression, without its package or
// type arguments.
func typeName(e ast.Expr) string {
	name := types.ExprString(e)
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	return name[strings.LastIndexAny(name, "*.")+1:]
}

// has reports whether type typ has the field or method name, itself,
// through an embedded type or as an alias.
func (m *module) has(typ, name string) bool {
	for _, e := range m.embeds[typ] {
		if e != typ && m.has(e, name) {
			return true
		}
	}
	return m.members[typ+"."+name]
}

// resolve checks a function name, or a dotted name starting with an
// exported type or with a package and an exported name, whose next
// component must be a field or method. checked is false for any other
// dotted name: metrics, files, variables.
func (m *module) resolve(name string) (checked, ok bool) {
	parts := strings.Split(name, ".")
	if len(parts) == 1 { // a Test, Benchmark or Fuzz function
		return true, m.decls[name]
	}
	if m.members[parts[0]] && token.IsExported(parts[0]) {
		return true, m.has(parts[0], parts[1])
	}
	dirs := m.byName[parts[0]]
	if dirs == nil || !token.IsExported(parts[1]) {
		return false, false
	}
	for _, dir := range dirs {
		if m.decls[dir+" "+parts[1]] && (len(parts) == 2 || m.has(parts[1], parts[2])) {
			return true, true
		}
	}
	return true, false
}

// TestCINamesExist holds .github/workflows/ci.yml to the tree: its steps
// name tests by hand in -run and -fuzz patterns, and go test passes with
// nothing run when a pattern matches nothing, so a renamed test would
// drop out of CI silently. Every name must be a Test or Fuzz function in
// one of the packages its command lists.
func TestCINamesExist(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	yml := readFile(t, filepath.Join(".github", "workflows", "ci.yml"))
	pattern := regexp.MustCompile(`-(?:run|fuzz)[= ]'?([\w$|^]+)`)
	checked := 0
	for _, line := range strings.Split(yml, "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		for _, match := range pattern.FindAllStringSubmatch(line, -1) {
			for _, name := range strings.Split(match[1], "|") {
				if name = strings.Trim(name, "^$"); name == "XXX" {
					continue // the "run no test" idiom of the fuzz and bench steps
				}
				checked++
				declared := false
				for _, arg := range strings.Fields(line) {
					declared = declared || (arg == "." || strings.HasPrefix(arg, "./")) && m.decls[filepath.Clean(arg)+" "+name]
				}
				if !declared || !(strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz")) {
					t.Errorf("ci.yml names %s, which is no Test/Fuzz function of the packages in:\n\t%s", name, strings.TrimSpace(line))
				}
			}
		}
	}
	if checked < 30 {
		t.Errorf("found only %d names: ci.yml's commands are no longer read", checked)
	}
}

var (
	// citation names a DESIGN.md or EXPERIMENTS.md heading, quoted.
	citation   = regexp.MustCompile("(DESIGN|EXPERIMENTS)\\.md`?,?\\s+\"([^\"]+)\"")
	commentRef = regexp.MustCompile(`(?:^|[^\w.])([a-z]\w*\.[A-Z]\w*(?:\.\w+)?)`)
	heading    = regexp.MustCompile(`(?m)^#+ +(.*?) *$`)
	inlineCode = regexp.MustCompile("`([^`]+)`")
	testName   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\b\*?`)
	dotted     = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	binary     = regexp.MustCompile(`rtbh-(?:sim|analyze|live)\b`)
	flagArg    = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
	bareFile   = regexp.MustCompile(`^[\w-]+\.(?:go|md)$`)
	pathTops   = map[string]bool{"internal": true, "cmd": true, "examples": true, "bench": true, "testdata": true, ".github": true}
	// docBudgets keeps the three docs from regrowing.
	docBudgets = map[string]int{"README.md": 18000, "DESIGN.md": 35000, "EXPERIMENTS.md": 30000}
)

func readFile(t *testing.T, path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// codeUnits returns a markdown document's code: each inline code span and
// each line of its fenced blocks (a command takes one line).
func codeUnits(doc string) []string {
	var units []string
	var prose strings.Builder
	fenced := false
	for _, l := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			fenced = !fenced
		case fenced:
			units = append(units, l)
		default:
			prose.WriteString(l + "\n")
		}
	}
	for _, span := range inlineCode.FindAllStringSubmatch(prose.String(), -1) {
		units = append(units, strings.ReplaceAll(span[1], "\n", " "))
	}
	return units
}

// TestDocNames holds the prose to the tree, as TestReachability holds the
// code. It fails on (a) a citation of a DESIGN.md or EXPERIMENTS.md
// heading that is not one, in a .go or .md file outside bench/, CHANGES.md,
// ROADMAP.md and ISSUE.md; in the code of README.md, DESIGN.md and
// EXPERIMENTS.md, on (b) a function or dotted name nothing declares, (c) a
// flag the binary it is passed to does not define, or (d) a repository
// path that does not exist; on (e) a package.Name in a Go comment that
// does not resolve; and on (f) a doc over its byte budget.
func TestDocNames(t *testing.T) {
	m, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, doc := range []string{"DESIGN", "EXPERIMENTS"} {
		for _, h := range heading.FindAllStringSubmatch(readFile(t, doc+".md"), -1) {
			headings[doc+": "+h[1]] = true
		}
	}
	cite := func(where, text string) {
		for _, c := range citation.FindAllStringSubmatch(text, -1) {
			if h := strings.Join(strings.Fields(c[2]), " "); !headings[c[1]+": "+h] {
				t.Errorf("%s cites %s.md, %q, which is no heading of it", where, c[1], h)
			}
		}
	}
	for _, cg := range m.comments {
		where := m.fset.Position(cg.Pos()).String()
		cite(where, cg.Text())
		for _, ref := range commentRef.FindAllStringSubmatch(cg.Text(), -1) {
			if checked, ok := m.resolve(ref[1]); checked && !ok {
				t.Errorf("%s: comment names %s, which is declared nowhere in the module", where, ref[1])
			}
		}
	}
	docs, _ := filepath.Glob("*.md")
	for _, path := range docs {
		if path != "CHANGES.md" && path != "ROADMAP.md" && path != "ISSUE.md" {
			cite(path, readFile(t, path))
		}
	}
	defines := func(bin, flag string) bool { // in its own package, or in a function it calls
		dir := filepath.Join("cmd", bin)
		main := readFile(t, filepath.Join(dir, "main.go"))
		for key, names := range m.flags {
			if slices.Contains(names, flag) && (strings.HasPrefix(key, dir+".") || strings.Contains(main, key+"(")) {
				return true
			}
		}
		return false
	}
	for doc, budget := range docBudgets {
		text := readFile(t, doc)
		if len(text) > budget {
			t.Errorf("%s is %d bytes, over its budget of %d", doc, len(text), budget)
		}
		for _, u := range codeUnits(text) {
			for _, name := range append(testName.FindAllString(u, -1), dotted.FindAllString(u, -1)...) {
				if checked, ok := m.resolve(name); checked && !ok && !strings.HasSuffix(name, "*") {
					t.Errorf("%s: %s is declared nowhere in the module", doc, name)
				}
			}
			for _, cmd := range strings.FieldsFunc(u, func(r rune) bool { return strings.ContainsRune("|;&>#", r) }) {
				if loc := binary.FindStringIndex(cmd); loc != nil {
					for _, f := range flagArg.FindAllStringSubmatch(cmd[loc[1]:], -1) {
						if bin := cmd[loc[0]:loc[1]]; !defines(bin, f[1]) {
							t.Errorf("%s: %s has no flag -%s", doc, bin, f[1])
						}
					}
				}
			}
			for _, tok := range strings.Fields(u) {
				tok, _, _ = strings.Cut(strings.TrimPrefix(strings.Trim(tok, "\"'(),;"), "./"), "/...")
				top, _, isPath := strings.Cut(tok, "/")
				found, _ := filepath.Glob(strings.TrimSuffix(tok, "/"))
				if isPath && pathTops[top] && len(found) == 0 || !isPath && bareFile.MatchString(tok) && !m.files[tok] {
					t.Errorf("%s: %s does not exist", doc, tok)
				}
			}
		}
	}
}
