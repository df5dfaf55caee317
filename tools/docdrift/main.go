// Command docdrift fails when an exported Go identifier named in a
// markdown table of the given docs no longer exists anywhere in the
// repository's Go source — the cheap guard that keeps the algorithm and
// API tables in docs/COLLECTIVES.md from silently rotting as code evolves.
//
// A "named identifier" is a backticked token in a table row (a line
// starting with '|') that looks like an exported Go identifier: leading
// upper-case letter, at least one lower-case letter, only letters, digits
// and underscores. Dotted selectors like `core.HierDSAR` are checked by
// their final element.
//
// It also fails when a `sparbench -sweep X` invocation anywhere in the docs
// names a sweep the registry in internal/experiments does not hold.
//
// Usage: go run ./tools/docdrift -root . docs/COLLECTIVES.md...
package main

import (
	"flag"
	"fmt"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("docdrift: ")
	root := flag.String("root", ".", "repository root to scan for Go source")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: docdrift [-root dir] <doc.md>...")
	}

	source, err := allGoSource(*root)
	if err != nil {
		log.Fatal(err)
	}

	missing := 0
	for _, doc := range flag.Args() {
		text, err := os.ReadFile(doc)
		if err != nil {
			log.Fatal(err)
		}
		for _, m := range sweepFlag.FindAllSubmatch(text, -1) {
			if _, err := experiments.Lookup(string(m[1])); err != nil {
				fmt.Fprintf(os.Stderr, "%s: `sparbench -sweep %s` names no registered sweep\n", doc, m[1])
				missing++
			}
		}
		names := tableIdentifiers(string(text))
		for _, name := range names {
			if !wordPresent(source, name) {
				fmt.Fprintf(os.Stderr, "%s: `%s` is named in a table but does not exist in the Go source\n", doc, name)
				missing++
			}
		}
	}
	if missing > 0 {
		log.Fatalf("%d stale name(s) — update the docs or restore the symbols", missing)
	}
	fmt.Println("docdrift: all documented identifiers and sweeps exist in the source")
}

// allGoSource concatenates every .go file under root (skipping hidden
// directories) so presence checks can run over one haystack.
func allGoSource(root string) (string, error) {
	var sb strings.Builder
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sb.Write(b)
			sb.WriteByte('\n')
		}
		return nil
	})
	return sb.String(), err
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

// wordPresent reports whether name occurs in source on an identifier
// boundary (not as a substring of a longer identifier).
func wordPresent(source, name string) bool {
	re := regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`)
	return re.MatchString(source)
}
