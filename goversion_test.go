package rudolf_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestStdlibWithinGoVersion fails on any use of a standard-library package
// member that is newer than the language version go.mod states. The
// toolchain ships, for every release, the list of API it added
// ($GOROOT/api/go1.N.txt); every package-level func, var, const or type a
// release after go.mod's added is looked up as a selector (strings.Lines,
// slog.DiscardHandler, ...) in every .go file of the module, tests included.
// Methods and struct fields are out of scope: telling their receiver's type
// apart needs type checking, not a parse. Entries that exist only on some
// platforms (syscall's per-OS constants) are skipped. The test skips when the
// toolchain carries no list newer than go.mod's version.
func TestStdlibWithinGoVersion(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^go 1\.(\d+)`).FindSubmatch(mod)
	if m == nil {
		t.Fatal("go.mod states no go 1.N version")
	}
	minor, _ := strconv.Atoi(string(m[1]))
	out, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		t.Skipf("go env GOROOT: %v", err)
	}
	lists, _ := filepath.Glob(filepath.Join(strings.TrimSpace(string(out)), "api", "go1.*.txt"))
	newer := map[string]string{} // "net/http.HTTP2Config" -> "go1.24"
	for _, list := range lists {
		release := strings.TrimSuffix(filepath.Base(list), ".txt")
		if n, err := strconv.Atoi(strings.TrimPrefix(release, "go1.")); err != nil || n <= minor {
			continue
		}
		if err := readAPIList(list, release, newer); err != nil {
			t.Fatal(err)
		}
	}
	if len(newer) == 0 {
		t.Skipf("the toolchain lists no API newer than go 1.%d", minor)
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		imports := map[string]string{} // name in this file -> import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := filepath.Base(p)
			if majorVersion.MatchString(name) {
				name = filepath.Base(filepath.Dir(p)) // math/rand/v2 is rand
			}
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// Obj is nil for a package name: a local that shadows it is not one.
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				if release, ok := newer[imports[id.Name]+"."+sel.Sel.Name]; ok {
					t.Errorf("%s: %s.%s is %s API; go.mod says go 1.%d", fset.Position(sel.Pos()), id.Name, sel.Sel.Name, release, minor)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	// apiMember matches the package-level entries of an API list:
	// "pkg strings, func Lines(string) iter.Seq[string] #61901" and the like.
	// A method line ("method (...)") and a platform-qualified line ("pkg
	// syscall (linux-386), ...") do not match.
	apiMember = regexp.MustCompile(`^pkg ([^ ,]+), (?:func|var|const|type) ([A-Za-z_][A-Za-z0-9_]*)(?:[^A-Za-z0-9_,]|$)`)
	// apiTypeMember matches a field or method added to an existing struct or
	// interface ("pkg net/http, type Server struct, HTTP2 *HTTP2Config").
	apiTypeMember = regexp.MustCompile(`^pkg [^,]+, type \w+ (struct|interface), `)
	majorVersion  = regexp.MustCompile(`^v\d+$`)
)

func readAPIList(path, release string, into map[string]string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		// A "//deprecated" line marks an older member deprecated.
		if strings.Contains(line, "//deprecated") || apiTypeMember.MatchString(line) {
			continue
		}
		if m := apiMember.FindStringSubmatch(line); m != nil {
			if _, seen := into[m[1]+"."+m[2]]; !seen {
				into[m[1]+"."+m[2]] = release
			}
		}
	}
	return sc.Err()
}
