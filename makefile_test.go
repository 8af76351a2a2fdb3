package isacmp

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

// makeRunLine matches a Makefile recipe line that runs `go test` with a
// -run filter, capturing the filter and the package argument.
var makeRunLine = regexp.MustCompile(`\$\(GO\) test .*-run ('[^']*'|\S+) .*?(\./\S*|\.)\s*$`)

// TestMakefileRunPatterns: `go test -run 'A|B' pkg` passes when B
// matches no test, so a renamed or deleted test silently drops out of
// the suite that names it. Every alternative of every -run filter in
// the Makefile must match a Test, Fuzz or Example function of its
// package.
func TestMakefileRunPatterns(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		m := makeRunLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.ReplaceAll(strings.Trim(m[1], "'"), "$$", "$")
		if pattern == "^$" {
			continue // deliberately runs no test (bench-smoke)
		}
		names := testFuncs(t, m[2])
		for _, alt := range strings.Split(pattern, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("Makefile:%d: bad -run alternative %q: %v", i+1, alt, err)
			}
			found := false
			for _, n := range names {
				if re.MatchString(n) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("Makefile:%d: -run alternative %q matches no test in %s", i+1, alt, m[2])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run filters in the Makefile")
	}
}

// testFuncs returns the names of the Test, Fuzz and Example functions
// declared in the _test.go files of the package directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
