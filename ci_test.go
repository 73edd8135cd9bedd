package onll

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatch guards the CI workflow against -run drift: a
// `go test -run 'A|B'` line whose alternative names a deleted or
// renamed test still passes, silently running less than it claims.
// Every |-alternative of every -run pattern in .github/workflows/ci.yml
// must match at least one `func Test…` or `func Fuzz…` (-run selects
// both) in the packages that line names. Lines with -bench are skipped:
// there -run deliberately matches nothing so only benchmarks run.
//
// A -fuzz pattern must match exactly one `func Fuzz…` in each package
// its line names — go test refuses to fuzz more than one target, and a
// pattern matching none fuzzes nothing.
func TestCIRunPatternsMatch(t *testing.T) {
	lines, err := ciRunLines(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no `go test -run` lines found in the CI workflow")
	}
	for _, l := range lines {
		var names []string
		for _, pkg := range l.pkgs {
			ns, err := testFuncs(pkg)
			if err != nil {
				t.Fatalf("%s: %v", l.text, err)
			}
			names = append(names, ns...)
			if l.fuzz != "" {
				checkFuzzPattern(t, l, pkg, ns)
			}
		}
		for _, alt := range strings.Split(l.pattern, "|") {
			// -run matches a test's top-level name against the part
			// before the first '/'; the rest selects subtests.
			re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
			if err != nil {
				t.Errorf("%s: alternative %q: %v", l.text, alt, err)
				continue
			}
			matched := false
			for _, n := range names {
				if re.MatchString(n) {
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("%s: -run alternative %q matches no test in %v", l.text, alt, l.pkgs)
			}
		}
	}
}

// checkFuzzPattern requires l's -fuzz pattern to match exactly one of
// the Fuzz functions among names, the test functions declared in pkg.
func checkFuzzPattern(t *testing.T, l ciRunLine, pkg string, names []string) {
	t.Helper()
	re, err := regexp.Compile(l.fuzz)
	if err != nil {
		t.Errorf("%s: -fuzz %q: %v", l.text, l.fuzz, err)
		return
	}
	var matched []string
	for _, n := range names {
		if strings.HasPrefix(n, "Fuzz") && re.MatchString(n) {
			matched = append(matched, n)
		}
	}
	if len(matched) != 1 {
		t.Errorf("%s: -fuzz %q matches %d fuzz targets in %s (%v), want exactly 1",
			l.text, l.fuzz, len(matched), pkg, matched)
	}
}

// ciRunLine is one `go test -run PATTERN ... PKGS` invocation, with
// its -fuzz pattern if it fuzzes.
type ciRunLine struct {
	text    string
	pattern string
	fuzz    string
	pkgs    []string
}

// ciRunLines scans a workflow file for go test invocations with a -run
// pattern. It reads lines, not YAML: every invocation in the workflow
// sits on one line, either after `run:` or inside a `run: |` block.
func ciRunLines(path string) ([]ciRunLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []ciRunLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(sc.Text()), "run:"))
		if !strings.HasPrefix(text, "go test ") {
			continue
		}
		// No pattern in the workflow holds a blank, so splitting on
		// blanks and dropping the quotes recovers it.
		fields := strings.Fields(text)
		l := ciRunLine{text: text}
		bench := false
		for i := 2; i < len(fields); i++ {
			switch f := fields[i]; {
			case f == "-run" && i+1 < len(fields):
				i++
				l.pattern = strings.Trim(fields[i], "'")
			case f == "-fuzz" && i+1 < len(fields):
				i++
				l.fuzz = strings.Trim(fields[i], "'")
			case f == "-bench":
				bench = true
			case f == "." || strings.HasPrefix(f, "./"):
				l.pkgs = append(l.pkgs, f)
			}
		}
		if l.pattern != "" && !bench {
			out = append(out, l)
		}
	}
	return out, sc.Err()
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// testFuncs lists the Test and Fuzz functions declared in the _test.go
// files of pkg, a directory relative to the module root (this package's
// directory).
func testFuncs(pkg string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("package %s has no test files", pkg)
	}
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		for _, m := range testFuncRE.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names, nil
}
