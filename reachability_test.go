//go:build reachability

// The reachability check (ROADMAP item 10): every package-level function,
// method and named type in non-test Go must be reachable from the main and
// init functions of the binaries under cmd/, examples/ and bench/, or be
// named in testdata/reachability_allow.txt with the reason it stays. Code
// that only tests reach is code nothing runs.
//
//	go test -tags reachability -run TestReachability .
//
// One go/types pass over the module, standard library only. Calls through
// an interface are resolved conservatively: a method of a reached type is
// reached if any interface anywhere (module or standard library) that the
// type implements declares it — so String, Error, ServeHTTP, Less and the
// like are never reported, at the price of missing a method that merely
// shares an interface's shape.
package envmon

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const modulePath = "envmon"

// reachPkg is one type-checked module package and who uses what inside it.
type reachPkg struct {
	pkg *types.Package
	// uses maps each package-level declaration to every object its source
	// mentions; roots collects what runs at link time whether or not
	// anything names it (init functions, package-level var initialisers).
	uses  map[types.Object][]types.Object
	roots []types.Object
}

// reachLoader type-checks module packages from source exactly once each, so
// an object has one identity however many packages import it; everything
// outside the module comes from the standard library's source importer.
type reachLoader struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*reachPkg
	ifaces []*types.Interface
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	tp, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{pkg: tp, uses: map[types.Object][]types.Object{}}
	l.pkgs[path] = p
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			l.ifaces = append(l.ifaces, it)
		}
	}
	mentioned := func(n ast.Node) (out []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil && o.Pkg() != nil {
					out = append(out, origin(o))
				}
			}
			return true
		})
		return out
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				o := info.Defs[d.Name]
				p.uses[o] = mentioned(d)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
					p.roots = append(p.roots, o)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.uses[info.Defs[s.Name]] = mentioned(s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							o := info.Defs[name]
							if o == nil { // the blank identifier
								p.roots = append(p.roots, mentioned(s)...)
								continue
							}
							p.uses[o] = mentioned(s)
							if d.Tok == token.VAR {
								p.roots = append(p.roots, o)
							}
						}
					}
				}
			}
		}
	}
	return tp, nil
}

// origin maps an instantiated generic function, method or field back to
// its declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// objectName spells an object the way the allowlist does:
// "envmon/internal/wal.Reset", "envmon/internal/wal.(WAL).Size".
func objectName(o types.Object) string {
	if fn, ok := o.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			return fmt.Sprintf("%s.(%s).%s", o.Pkg().Path(), t.(*types.Named).Obj().Name(), o.Name())
		}
	}
	return o.Pkg().Path() + "." + o.Name()
}

func TestReachability(t *testing.T) {
	build.Default.CgoEnabled = false // type-check the pure-Go net, os/user
	fset := token.NewFileSet()
	l := &reachLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*reachPkg{}}

	// Roots: every main package under the three directories that hold
	// binaries. Loading one loads everything it links.
	var all []string // every non-test package directory in the module
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.Default.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			all = append(all, filepath.ToSlash(filepath.Join(modulePath, path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range all {
		rel := strings.TrimPrefix(path, modulePath+"/")
		if strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/") || rel == "bench" {
			if _, err := l.Import(path); err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
		}
	}
	// Interfaces the standard library calls through (fmt.Stringer, error,
	// http.Handler, sort.Interface, flag.Value, ...).
	l.ifaces = append(l.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seenStd := map[*types.Package]bool{}
	var collectStd func(p *types.Package)
	collectStd = func(p *types.Package) {
		if seenStd[p] {
			return
		}
		seenStd[p] = true
		if _, ours := l.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						l.ifaces = append(l.ifaces, it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			collectStd(imp)
		}
	}
	for _, p := range l.pkgs {
		collectStd(p.pkg)
	}

	// Mark. A reached named type keeps the methods some interface could
	// call on it; the loop ends when a pass over the reached types adds
	// nothing.
	live := map[types.Object]bool{}
	var liveTypes []*types.Named
	var work []types.Object
	mark := func(o types.Object) {
		if o == nil || live[o] {
			return
		}
		live[o] = true
		work = append(work, o)
		if tn, ok := o.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
				liveTypes = append(liveTypes, named)
			}
		}
	}
	for _, p := range l.pkgs {
		for _, o := range p.roots {
			mark(o)
		}
	}
	for checked := 0; len(work) > 0 || checked < len(liveTypes); {
		for len(work) > 0 {
			o := work[len(work)-1]
			work = work[:len(work)-1]
			if p := l.pkgs[o.Pkg().Path()]; p != nil {
				for _, u := range p.uses[o] {
					mark(u)
				}
			}
		}
		for ; checked < len(liveTypes); checked++ {
			ptr := types.NewPointer(liveTypes[checked])
			ms := types.NewMethodSet(ptr)
			for _, it := range l.ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						mark(origin(sel.Obj()))
					}
				}
			}
		}
	}

	// Sweep: what is declared and not reached, less what the allowlist
	// names. A package no binary links at all is reported as one line.
	allow := readAllowlist(t, "testdata/reachability_allow.txt")
	used := map[string]bool{}
	allowed := func(pkg, name string) bool {
		for _, key := range []string{pkg + ".*", name} {
			if allow[key] {
				used[key] = true
				return true
			}
		}
		return false
	}
	var dead []string
	for _, path := range all {
		p := l.pkgs[path]
		if p == nil {
			if !allowed(path, path) {
				dead = append(dead, path+" (package: no binary links it)")
			}
			continue
		}
		if p.pkg.Name() == "main" {
			continue
		}
		for o := range p.uses {
			if live[o] || o.Name() == "_" {
				continue
			}
			switch o := o.(type) {
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					if !live[t.(*types.Named).Obj()] {
						continue // the type's own line covers its methods
					}
				}
			case *types.TypeName:
			default:
				continue // constants and variables: not this check's business
			}
			if name := objectName(o); !allowed(path, name) {
				dead = append(dead, name+"  "+fset.Position(o.Pos()).String())
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("reached by no binary: %s", d)
	}
	for key := range allow {
		if !used[key] {
			t.Errorf("testdata/reachability_allow.txt: %q excuses nothing any more; delete the line", key)
		}
	}
}

// readAllowlist reads one entry per line — "import/path.*" for a whole
// package, "import/path.Name" or "import/path.(Type).Method" for one
// declaration — ignoring blank lines and # comments.
func readAllowlist(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if line = strings.TrimSpace(line); line != "" {
			allow[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}
