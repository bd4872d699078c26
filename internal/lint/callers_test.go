// Package lint holds repository-wide checks that run as ordinary tests.
package lint

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// conventional names are methods that code outside the module calls
// through an interface the module never invokes itself: fmt's Stringer,
// error, net/http's Handler, encoding/json's Marshaler and Unmarshaler
// (request bodies decode into ast.Node) and sort.Interface.
var conventional = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "MarshalJSON": true,
	"UnmarshalJSON": true, "Len": true, "Less": true, "Swap": true,
}

// TestEveryInternalFuncHasAProductCaller type-checks the module's non-test
// files and fails for every function or method declared under internal/
// that no product code reaches. Code outside internal/ (cmd/, examples/,
// bench/, pi/) is product code, and so is every package-level declaration
// and init function; a function under internal/ counts as product code once
// something product reaches it. A function is reached by a direct
// reference (an instantiation counts for its generic origin); a method
// also by a product call of the same-named method on an interface its
// type implements, or by having one of the conventional names.
// Functions that only tests reach belong in a _test.go file or nowhere;
// the few exceptions are listed, with a reason each, in callers_allow.txt.
func TestEveryInternalFuncHasAProductCaller(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	m := load(t, root)
	allow := readAllowlist(t, "callers_allow.txt")
	if len(allow) > 10 {
		t.Errorf("callers_allow.txt has %d entries, want at most 10", len(allow))
	}
	unreached := m.unreached(nil)
	for name := range allow {
		if _, ok := m.internal[name]; !ok {
			t.Errorf("callers_allow.txt lists %s, which is not declared under internal/", name)
		} else if !unreached[name] {
			t.Errorf("callers_allow.txt lists %s, which product code now reaches: drop the entry", name)
		}
	}
	// An allowed function keeps what it calls.
	var bad []string
	for name := range m.unreached(allow) {
		if _, ok := allow[name]; !ok {
			bad = append(bad, name+" ("+m.internal[name]+")")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("no product caller: %s", b)
	}
}

// module is the type-checked non-test code of the repository.
type module struct {
	path     string // module path from go.mod
	fset     *token.FileSet
	pkgs     map[string]*modPkg // by import path
	std      types.ImporterFrom // standard library, from source
	decls    map[*types.Func]*ast.FuncDecl
	internal map[string]string // qualified name of each func under internal/ -> position
}

type modPkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func load(t *testing.T, root string) *module {
	t.Helper()
	modPath := readModulePath(t, filepath.Join(root, "go.mod"))
	// Type-check the pure-Go variants, so no C toolchain is needed. The
	// source importer reads build.Default too.
	build.Default.CgoEnabled = false
	m := &module{
		path:     modPath,
		fset:     token.NewFileSet(),
		pkgs:     map[string]*modPkg{},
		decls:    map[*types.Func]*ast.FuncDecl{},
		internal: map[string]string{},
	}
	std, ok := importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	if !ok {
		t.Fatal("source importer does not implement types.ImporterFrom")
	}
	m.std = std

	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if err != nil {
			return nil // no buildable non-test Go files here
		}
		rel, _ := filepath.Rel(root, p)
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		pkg := &modPkg{}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg.files = append(pkg.files, f)
		}
		m.pkgs[ip] = pkg
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(m.pkgs))
	for ip := range m.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := m.check(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}
	for _, ip := range paths {
		pkg := m.pkgs[ip]
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.decls[fn] = fd
				if strings.HasPrefix(ip, modPath+"/internal/") {
					m.internal[qualified(fn)] = m.fset.Position(fd.Pos()).String()
				}
			}
		}
	}
	return m
}

// Import and ImportFrom resolve the module's own packages to the ones
// checked here, so objects are shared across packages; the standard
// library comes from source.
func (m *module) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *module) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := m.pkgs[path]; ok {
		return m.check(path)
	}
	return m.std.ImportFrom(path, dir, mode)
}

func (m *module) check(ip string) (*types.Package, error) {
	pkg := m.pkgs[ip]
	if pkg.types != nil {
		return pkg.types, nil
	}
	pkg.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(ip, m.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, err
	}
	pkg.types = tp
	return tp, nil
}

// unreached returns the qualified names of the functions under internal/
// that product code, or a function named in roots, does not reach.
func (m *module) unreached(roots map[string]string) map[string]bool {
	reached := map[*types.Func]bool{}
	called := map[string][]*types.Interface{} // interface methods product code calls, by name
	var queue []*types.Func
	mark := func(fn *types.Func) {
		fn = fn.Origin()
		if !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	visit := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[fn.Name()] = append(called[fn.Name()], it)
				}
			}
			mark(fn)
			return true
		})
	}
	// Roots: everything outside internal/, every package-level non-function
	// declaration, every init function and the named roots.
	for ip, pkg := range m.pkgs {
		inInternal := strings.HasPrefix(ip, m.path+"/internal/")
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				switch {
				case !ok:
					visit(d, pkg.info)
				default:
					fn, ok := pkg.info.Defs[fd.Name].(*types.Func)
					if !ok {
						continue
					}
					if _, root := roots[qualified(fn)]; root || !inInternal || (fd.Recv == nil && fd.Name.Name == "init") {
						mark(fn)
					}
				}
			}
		}
	}
	for {
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if fd, ok := m.decls[fn]; ok && fd.Body != nil {
				visit(fd.Body, m.pkgs[fn.Pkg().Path()].info)
			}
		}
		// A method is reached when its type implements an interface whose
		// method of that name product code calls; reaching it may reveal
		// more interface calls, so repeat.
		for fn := range m.decls {
			if !reached[fn] && implementsCalled(fn, called) {
				mark(fn)
			}
		}
		if len(queue) == 0 {
			break
		}
	}
	out := map[string]bool{}
	for fn := range m.decls {
		if !reached[fn] {
			if name := qualified(fn); m.internal[name] != "" {
				out[name] = true
			}
		}
	}
	return out
}

func implementsCalled(fn *types.Func, called map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || types.IsInterface(recv.Type()) {
		return false
	}
	if conventional[fn.Name()] {
		return true
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t) // the pointer's method set holds both kinds
	}
	for _, it := range called[fn.Name()] {
		if types.Implements(t, it) {
			return true
		}
	}
	return false
}

// qualified names a function as pkg.Func or pkg.(*T).Method / pkg.T.Method,
// with pkg the import path below the module's internal/ directory.
func qualified(fn *types.Func) string {
	pkg := fn.Pkg().Path()
	if i := strings.Index(pkg, "/internal/"); i >= 0 {
		pkg = pkg[i+len("/internal/"):]
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	rt := sig.Recv().Type()
	ptr := ""
	if p, ok := rt.(*types.Pointer); ok {
		rt, ptr = p.Elem(), "*"
	}
	name := rt.String()
	if n, ok := rt.(*types.Named); ok {
		name = n.Obj().Name()
	}
	if ptr != "" {
		return pkg + ".(*" + name + ")." + fn.Name()
	}
	return pkg + "." + name + "." + fn.Name()
}

func readModulePath(t *testing.T, gomod string) string {
	t.Helper()
	b, err := os.ReadFile(gomod)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1]
		}
	}
	t.Fatal("no module line in go.mod")
	return ""
}

// readAllowlist reads "name  reason" lines; blank lines and # comments are
// skipped, and every entry must give a reason.
func readAllowlist(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: entry %s gives no reason", file, name)
		}
		allow[name] = strings.TrimSpace(reason)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
