// Command docdrift fails when the given docs name Go identifiers the
// repository no longer declares — the cheap guard that keeps the algorithm
// and API tables in docs/COLLECTIVES.md from silently rotting as code
// evolves. Three checks:
//
//   - A backticked token in a table row (a line starting with '|') that
//     looks like an exported Go identifier — leading upper-case letter, at
//     least one lower-case letter, only letters, digits and underscores —
//     must be declared by non-test Go source: a top-level declaration, a
//     method, a struct field or an interface method — or be a Test function
//     of a _test.go file, as the README's reproduction map names the test
//     asserting each claim. Dotted selectors like
//     `core.DSARSplitAllgather` are checked by their final element. A word that only
//     survives in a comment, a string or a test helper does not count.
//   - Every `sparcml.X` selector inside a fenced Go block must name an
//     exported top-level identifier of the facade package at the root.
//   - Every `sparbench -sweep X` invocation must name a sweep the registry
//     in internal/experiments holds.
//
// Usage: go run ./tools/docdrift -root . docs/COLLECTIVES.md...
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/experiments"
)

var backticked = regexp.MustCompile("`([^`]+)`")
var identifier = regexp.MustCompile(`^[A-Z][A-Za-z0-9_]*$`)
var sweepFlag = regexp.MustCompile(`sparbench\s+-sweep\s+([A-Za-z0-9_]+)`)
var goFence = regexp.MustCompile("(?s)```go\n(.*?)```")
var facadeSelector = regexp.MustCompile(`\bsparcml\.([A-Z][A-Za-z0-9_]*)`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("docdrift: ")
	root := flag.String("root", ".", "repository root to scan for Go source")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: docdrift [-root dir] <doc.md>...")
	}

	declared, facade, err := declaredIdentifiers(*root)
	if err != nil {
		log.Fatal(err)
	}

	missing := 0
	stale := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		missing++
	}
	for _, doc := range flag.Args() {
		raw, err := os.ReadFile(doc)
		if err != nil {
			log.Fatal(err)
		}
		text := string(raw)
		for _, m := range sweepFlag.FindAllStringSubmatch(text, -1) {
			if _, err := experiments.Lookup(m[1]); err != nil {
				stale("%s: `sparbench -sweep %s` names no registered sweep", doc, m[1])
			}
		}
		for _, name := range tableIdentifiers(text) {
			if !declared[name] {
				stale("%s: `%s` is named in a table but no non-test Go source declares it", doc, name)
			}
		}
		for _, name := range facadeSelectors(text) {
			if !facade[name] {
				stale("%s: a Go block uses `sparcml.%s`, which the facade does not export", doc, name)
			}
		}
	}
	if missing > 0 {
		log.Fatalf("%d stale name(s) — update the docs or restore the symbols", missing)
	}
	fmt.Println("docdrift: all documented identifiers and sweeps exist in the source")
}

// declaredIdentifiers parses every non-test .go file under root (skipping
// hidden directories) and returns the names it declares anywhere —
// top-level declarations, methods, struct fields, interface methods — and
// the Test functions of the _test.go files, plus the exported subset the
// package in root itself declares at top level: the facade's exports.
func declaredIdentifiers(root string) (declared, facade map[string]bool, err error) {
	declared, facade = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range file.Decls {
				if f, ok := decl.(*ast.FuncDecl); ok && f.Recv == nil && strings.HasPrefix(f.Name.Name, "Test") {
					declared[f.Name.Name] = true
				}
			}
			return nil
		}
		inFacade := filepath.Dir(path) == filepath.Clean(root)
		topLevel := func(name string) {
			declared[name] = true
			if inFacade && ast.IsExported(name) {
				facade[name] = true
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil {
					declared[decl.Name.Name] = true // a method
				} else {
					topLevel(decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						topLevel(spec.Name.Name)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							topLevel(n.Name)
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var members *ast.FieldList
			switch n := n.(type) {
			case *ast.StructType:
				members = n.Fields
			case *ast.InterfaceType:
				members = n.Methods
			}
			if members != nil {
				for _, m := range members.List {
					for _, name := range m.Names {
						declared[name.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return declared, facade, err
}

// tableIdentifiers extracts the exported-identifier-shaped backticked
// tokens from the markdown text's table rows.
func tableIdentifiers(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			token := m[1]
			if i := strings.LastIndex(token, "."); i >= 0 {
				token = token[i+1:]
			}
			if !identifier.MatchString(token) || !strings.ContainsAny(token, "abcdefghijklmnopqrstuvwxyz") {
				continue
			}
			if !seen[token] {
				seen[token] = true
				out = append(out, token)
			}
		}
	}
	return out
}

// facadeSelectors extracts the X of every `sparcml.X` inside the markdown
// text's fenced Go blocks.
func facadeSelectors(text string) []string {
	seen := map[string]bool{}
	var out []string
	for _, block := range goFence.FindAllStringSubmatch(text, -1) {
		for _, m := range facadeSelector.FindAllStringSubmatch(block[1], -1) {
			if !seen[m[1]] {
				seen[m[1]] = true
				out = append(out, m[1])
			}
		}
	}
	return out
}
