// The architecture rules: each "one X" invariant the design rests on (one
// serving chassis, one /query codec, one count seam, one flag set per
// daemon, ...) is a row of queries over the module's syntax trees. A
// function is found by its receiver type and name, a package through the
// import that binds it, so a renamed receiver, an import alias or a moved
// file hides nothing. Each offence is printed as file:line.
//
//	go test -run TestArchitecture -v .
//
// go/parser only, so it runs with every other test; the go/types pass is
// reachability_test.go, behind its build tag.
package envmon

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A guard queries the Go files under scope (test files only if tests) less
// those under an except prefix ("prefix#Func" exempts one function there);
// with fn set ("Type.Method" or "Func"), only inside fn. No node may match
// a pattern in bad (see match), and a pattern listed k times in one must
// match exactly k nodes.
type guard struct {
	scope, fn        string
	except, bad, one []string
	tests            bool
}

const httpapi, codecGo = "internal/telemetry/httpapi/", "internal/telemetry/httpapi/codec.go"

var handlerCodecs = strs("json.*", "~Encode", "~Decode", "~Split", "~AppendJSON", "~Wire")

var architecture = []struct {
	name, rule string
	check      func(*archModule) []string
}{
	{"chassis", "DESIGN §13: internal/daemon owns the http.Server, the status-capturing writer, the signal wiring and the JSON encoder every handler answers through (daemon.WriteJSON); trace's file sink streams its own, bench/ wires its own", guards(
		guard{except: strs("internal/daemon/", "bench/"), bad: strs("http.Server", "signal.NotifyContext", "signal.Notify", "type statusWriter")},
		guard{except: strs("internal/daemon/", "internal/trace/", "bench/"), bad: strs("json.NewEncoder")})},
	{"codec", "DESIGN §7 and §11: httpapi/codec.go encodes, decodes and splits /query; handlers answer through daemon.WriteJSON, the client decodes or splits with the codec alone", guards(
		guard{scope: httpapi, fn: "Server.handleQuery", one: strs("func Server.handleQuery"), bad: handlerCodecs},
		guard{scope: "internal/federation/", fn: "Server.handleQuery", one: strs("func Server.handleQuery"), bad: handlerCodecs},
		guard{scope: "internal/telemetry/client/", fn: "Client.QueryFull", one: strs("httpapi.DecodeQueryResult"), bad: strs("json.*", "get()")},
		guard{scope: "internal/telemetry/client/", fn: "Client.QueryWire", one: strs("httpapi.SplitQueryResult"), bad: strs("json.*", "get()", "~DecodeQueryResult")},
		guard{scope: httpapi, fn: "DecodeQueryResult", one: strs("decodeCanonical()")},
		guard{scope: httpapi, fn: "decodeCanonical", one: strs("walkCanonical()")},
		guard{scope: httpapi, fn: "SplitQueryResult", one: strs("walkCanonical()")},
		guard{scope: codecGo, one: strs("func QueryResult.AppendJSON", "func WireResult.AppendJSON", "func DecodeQueryResult", "func SplitQueryResult")},
		guard{except: strs(codecGo), bad: strs("func QueryResult.AppendJSON", "func WireResult.AppendJSON", "func DecodeQueryResult", "func SplitQueryResult")},
		guard{bad: strs("func QueryResult.MarshalJSON", "func QueryResult.UnmarshalJSON", "func WireResult.MarshalJSON", "func WireResult.UnmarshalJSON")},
		guard{one: slices.Concat(strs("func scanner.frame", "func scanner.point", "key(keyNode)", "key(keyTNS)"), calls("newKey", codecKeys...))})},
	{"spellings", "DESIGN §11 One owner per rule: what envmond and envfedd answer alike has one definition both call; bench/ spells the power domain on its own", guards(
		guard{scope: httpapi, tests: true, bad: strs("type Point", "type NodePower", "type SourceHealth")},
		guard{scope: "internal/federation/", bad: strs("~lessFrameKey", "~frameKey", "~mergeSimNow")},
		guard{except: strs("bench/", "internal/telemetry/query.go"), bad: strs("~DefaultPowerDomain", `domain == ""`)},
		guard{except: strs("bench/", httpapi+"httpapi.go"), bad: strs(`"no matching series"`)},
		guard{scope: httpapi, fn: "frameDoc", one: strs("func frameDoc"), bad: strs("for")},
		guard{scope: httpapi, fn: "Server.handleTopK", one: strs("func Server.handleTopK"), bad: strs("for")},
		guard{scope: "internal/telemetry/", except: strs("internal/telemetry/storage/bytes.go", codecGo),
			bad: strs("crc32.MakeTable", "func appendString", "func readString", "type idxReader")})},
	{"count-seam", "DESIGN §9 Count seam: stream[T] in telemetry/ring.go is the only seam bookkeeping, and only the engine files touch the watermark", guards(
		guard{scope: "internal/telemetry/", bad: strs("~pointRing", "~gapRing", "~bucketRing", "~gapsPersisted", "~bucketsPersisted", "~bucketsTotal")},
		guard{scope: "internal/telemetry/", except: strs("internal/telemetry/ring.go", "internal/telemetry/engine.go", "internal/telemetry/query.go",
			"internal/telemetry/telemetry.go", "internal/telemetry/obs.go"), bad: strs(".sealed")})},
	{"absorb-path", "DESIGN §9 Runs: a cursor flush hands each run to Store.ingestRun; the rings take entries in series.append / appendGap and Open's restore only", guards(
		guard{scope: "internal/telemetry/stream.go", bad: strs("Ingest()")},
		guard{scope: "internal/telemetry/", except: strs("internal/telemetry/rollup.go#series.append", "internal/telemetry/rollup.go#series.appendGap",
			"internal/telemetry/engine.go#Open"), bad: strs("push()")})},
	{"poll-path", "DESIGN §7: core.Collector has one poll method, CollectInto, and moneq one sampling mode", guards(
		guard{bad: strs("~BatchCollector", "~InitializeSharded", "~DomainCollector", "~stagedRec")},
		guard{scope: "internal/", bad: strs("func .Collect")})},
	{"flag-sets", "DESIGN §13 Knobs: a daemon's flags are declared in registerFlags, which only main calls, once, with flag.CommandLine; main also calls flag.Parse", guards(
		slices.Concat(flagSet("cmd/envmond/"), flagSet("cmd/envcapd/"), flagSet("cmd/envfedd/"))...)},
	{"mechanisms", "DESIGN §3: each backend is one exported core.Mechanism holding its key, per-query cost and minimum interval; collectors embed it, the faults and resilience wrappers declare only the Cost they compute, and nothing else spells a core.BackendKey", mechanisms},
	{"mmap", "DESIGN §9 Write path: only the journal maps files", guards(
		guard{tests: true, except: strs("internal/telemetry/wal/"), bad: strs("syscall.Mmap")})},
	{"benchmark-system", `EXPERIMENTS.md "What the stack costs": speed is pairs of bench/run.sh; CHANGES, ROADMAP and bench/README.md keep the history`, benchmarkSystem},
	{"cited-tests", "every test DESIGN.md, the verify skill and the reachability allowlist's comments cite, and every -run alternative in CI and the skill, names a test that exists", citedTests},
	{"ci", "DESIGN §13: a daemon's TestBinary runs it as built, so CI runs Go tests and no curl, jq, sleep, sed or awk; and a test binds port 0, never a fixed one", func(m *archModule) []string {
		out := grepLines(".github/workflows/ci.yml", shellTool.FindString)
		for _, f := range m.files {
			if f.test {
				out = append(out, grepLines(f.path, fixedPort.FindString)...)
			}
		}
		return out
	}},
}

// codecKeys are the keys the /query decoder matches, each defined once.
// The two that open a frame and a point are matched in one place each, so
// a second frame or point grammar fails the row.
var codecKeys = strs(`{"frames":`, `,"sim_now_ns":`, `,"newest_ns":`, `,"degraded":`, `{"node":`, `,"backend":`,
	`,"domain":`, `,"unit":`, `,"resolution":`, `,"reduced":`, `,"t_ns":[`, `],"v":[`, `,"points":[`, `,"gaps_ns":[`,
	`{"t_ns":`, `,"min":`, `,"max":`, `,"mean":`, `,"last":`, `,"count":`)

// calls spells the pattern of a call of fn with each of args.
func calls(fn string, args ...string) (out []string) {
	for _, a := range args {
		out = append(out, fn+"("+a+")")
	}
	return out
}

func flagSet(dir string) []guard {
	return []guard{
		{scope: dir, except: strs(dir+"#registerFlags", dir+"#main"), bad: strs("flag.*")},
		{scope: dir, fn: "main", one: strs("flag.*", "flag.*", "flag.Parse", "registerFlags(flag.CommandLine)")},
		{scope: dir, one: strs("registerFlags()")},
	}
}

func TestArchitecture(t *testing.T) {
	m := loadModule(t)
	for _, r := range architecture {
		t.Run(r.name, func(t *testing.T) {
			for _, o := range r.check(m) {
				t.Error(o)
			}
			if t.Failed() {
				t.Log("the rule: " + r.rule)
			}
		})
	}
}

func guards(gs ...guard) func(*archModule) []string {
	return func(m *archModule) (out []string) {
		for _, g := range gs {
			want, in := map[string]int{}, strings.TrimSuffix(" in "+g.fn, " in ")
			for _, p := range g.one {
				want[p]++
			}
			patterns, found := g.find(m)
			for _, p := range patterns {
				switch k := want[p]; {
				case len(found[p]) == 0 && k > 0:
					out = append(out, fmt.Sprintf("%s: no %s%s", cmp.Or(g.scope, "module"), p, in))
				case len(found[p]) != k:
					for _, at := range found[p] {
						out = append(out, fmt.Sprintf("%s: %s%s (%d of them, want %d)", at, p, in, len(found[p]), k))
					}
				}
			}
		}
		return out
	}
}

// find lists g's patterns and, for each, where it matches in g's scope.
func (g guard) find(m *archModule) (patterns []string, found map[string][]string) {
	patterns, found = slices.Compact(slices.Sorted(slices.Values(slices.Concat(g.bad, g.one)))), map[string][]string{}
	for _, f := range m.files {
		if f.test && !g.tests || !strings.HasPrefix(f.path, g.scope) {
			continue
		}
		for _, d := range f.ast.Decls {
			decl, _ := d.(*ast.FuncDecl)
			if g.fn != "" && g.fn != funcName(decl) || slices.ContainsFunc(g.except, func(e string) bool {
				p, fn, _ := strings.Cut(e, "#")
				return strings.HasPrefix(f.path, p) && (fn == "" || fn == funcName(decl))
			}) {
				continue
			}
			ast.Inspect(d, func(n ast.Node) bool {
				for _, p := range patterns {
					if n != nil && f.match(n, p) {
						found[p] = append(found[p], m.at(n))
					}
				}
				return n != nil
			})
		}
	}
	return patterns, found
}

// mechanisms: a backend is declared once, as the core.Mechanism its vendor
// package exports, and that value spells its key's only literal.
func mechanisms(m *archModule) []string {
	_, found := guard{except: strs("internal/core/"), one: strs("core.Mechanism{}")}.find(m)
	keys := slices.Repeat(strs("core.BackendKey{}"), len(found["core.Mechanism{}"]))
	return guards(
		guard{except: strs("internal/core/", "internal/faults/#Injector.Cost", "internal/resilience/#Collector.Cost"),
			bad: strs("func .Platform", "func .Method", "func .MinInterval", "func .Cost")},
		guard{except: strs("internal/core/"), bad: strs("core.BackendKey{}"), one: keys})(m)
}

// match reports whether n is what pattern p describes (a glob as in path.Match):
//
//	pkg.Name   a selector on an imported package, Name a glob ("json.*")
//	.name      any selector of that name
//	type T     a type declaration that is not an alias
//	func F     a declaration funcName spells F ("func .M" is any method M)
//	~s         an identifier containing s
//	f()        a call of a function whose last identifier matches the glob f
//	f(a)       such a call whose first argument is the string literal or the pkg.Name a, or ends in the identifier a
//	"s"        the string literal s
//	T{}        a composite literal of T, also as an element whose T a []T or map[K]T literal elides
//	for        a loop
//	x == ""    an identifier ending in x, in any case, compared with ""
func (f *archFile) match(n ast.Node, p string) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		ok, _ := path.Match(p, f.sel(n))
		return ok || p == "."+n.Sel.Name
	case *ast.TypeSpec:
		return n.Assign == 0 && p == "type "+n.Name.Name
	case *ast.FuncDecl:
		return p == "func "+funcName(n) || n.Recv != nil && p == "func ."+n.Name.Name
	case *ast.Ident:
		return strings.HasPrefix(p, "~") && strings.Contains(n.Name, p[1:])
	case *ast.CallExpr:
		glob, arg, call := strings.Cut(strings.TrimSuffix(p, ")"), "(")
		ok, _ := path.Match(glob, lastIdent(n.Fun))
		return call && ok && strings.HasSuffix(p, ")") &&
			(arg == "" || len(n.Args) > 0 && (strLit(n.Args[0]) == strconv.Quote(arg) || f.sel(n.Args[0]) == arg || lastIdent(n.Args[0]) == arg))
	case *ast.CompositeLit:
		t, ok := strings.CutSuffix(p, "{}")
		return ok && cmp.Or(f.sel(n.Type), f.elided[n]) == t
	case *ast.BasicLit:
		return p == strLit(n)
	case *ast.ForStmt, *ast.RangeStmt:
		return p == "for"
	case *ast.BinaryExpr:
		x, ok := strings.CutSuffix(p, ` == ""`)
		return ok && n.Op == token.EQL && strings.HasSuffix(strings.ToLower(lastIdent(n.X)), x) && strLit(n.Y) == `""`
	}
	return false
}

func benchmarkSystem(m *archModule) (out []string) {
	// One bracketed letter each, so the pattern does not find itself.
	retired := regexp.MustCompile(`BENCH_[a-z]*\.json|bench[-]out|Bench[D]oc|obs[_]overhead`)
	workflows, _ := filepath.Glob(".github/workflows/*.yml")
	skills, _ := filepath.Glob(".claude/skills/*/SKILL.md")
	for _, p := range slices.Concat(workflows, skills, m.paths) {
		if ok, _ := path.Match("BENCH_*.json", path.Base(p)); ok {
			out = append(out, p+": a checked-in benchmark result")
		}
		if ext := path.Ext(p); (ext == ".go" || ext == ".md" || ext == ".yml") && !slices.Contains(strs("CHANGES.md", "ROADMAP.md", "bench/README.md"), p) {
			out = append(out, grepLines(p, retired.FindString)...)
		}
	}
	return out
}

var (
	shellTool    = regexp.MustCompile(`\b(curl|jq|sleep|sed|awk)\b`)
	fixedPort    = regexp.MustCompile(`(127\.0\.0\.1|localhost|\[::1\]):[1-9]\d{3,}`) // a port a test could bind
	testFunc     = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	backtickSpan = regexp.MustCompile("`([^`]+)`")
	citedTest    = regexp.MustCompile(`(?:^|[^\w.])((?:Test|Fuzz|Benchmark|Example)\w*)`)
	runPattern   = regexp.MustCompile(`(?:^|\s)-run '?([^'\s]+)`)
)

// citedTests: a test a document names in backticks exists, or is a prefix
// of one that does (docs cite -run prefixes); a -run alternative is part
// of a test's name; a test an allowlist comment names exists.
func citedTests(m *archModule) (out []string) {
	var names []string
	for _, f := range m.files {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && f.test && fd.Recv == nil && testFunc.MatchString(fd.Name.Name) {
				names = append(names, fd.Name.Name)
			}
		}
	}
	for _, doc := range []string{"DESIGN.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"} {
		out = append(out, grepLines(doc, func(line string) (bad string) {
			for _, span := range backtickSpan.FindAllStringSubmatch(line, -1) {
				for _, c := range citedTest.FindAllStringSubmatch(span[1], -1) {
					if !slices.ContainsFunc(names, func(n string) bool { return strings.HasPrefix(n, c[1]) }) {
						bad += " no test is named " + c[1] + "…"
					}
				}
			}
			for _, r := range runPattern.FindAllStringSubmatch(line, -1) {
				for _, alt := range strings.Split(strings.ReplaceAll(r[1], `\|`, "|"), "|") { // \| inside a Markdown table
					alt, _, _ = strings.Cut(alt, "/") // a subtest's parent
					if alt = strings.Trim(alt, "^$"); alt != "" && !slices.ContainsFunc(names, func(n string) bool { return strings.Contains(n, alt) }) {
						bad += fmt.Sprintf(" -run alternative %q matches no test", alt)
					}
				}
			}
			return bad
		})...)
	}
	return append(out, grepLines("testdata/reachability_allow.txt", func(line string) (bad string) {
		_, comment, _ := strings.Cut(line, "#")
		for _, c := range citedTest.FindAllStringSubmatch(comment, -1) {
			if !slices.Contains(names, c[1]) {
				bad += " no test is named " + c[1]
			}
		}
		return bad
	})...)
}

// moduleFiles lists every file of the module, slash-separated and relative
// to its root, skipping dot directories (.git, .bench_build) and testdata.
func moduleFiles(t *testing.T) (files []string) {
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, filepath.ToSlash(p))
		} else if err == nil && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

type archFile struct {
	path    string
	test    bool
	ast     *ast.File
	imports map[string]string            // the name an import binds → its path's last element
	elided  map[*ast.CompositeLit]string // an element literal → the pkg.Name its slice or map literal elides
}

type archModule struct {
	fset  *token.FileSet
	paths []string    // every file moduleFiles lists
	files []*archFile // its .go files, parsed
}

func loadModule(t *testing.T) *archModule {
	m := &archModule{fset: token.NewFileSet(), paths: moduleFiles(t)}
	for _, p := range m.paths {
		if path.Ext(p) != ".go" {
			continue
		}
		af, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		f := &archFile{path: p, test: strings.HasSuffix(p, "_test.go"), ast: af, imports: map[string]string{}, elided: map[*ast.CompositeLit]string{}}
		for _, im := range af.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			f.imports[local] = path.Base(ip)
		}
		ast.Inspect(af, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			var elt ast.Expr
			switch t := lit.Type.(type) {
			case *ast.ArrayType:
				elt = t.Elt
			case *ast.MapType:
				elt = t.Value
			}
			for _, e := range lit.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if el, ok := e.(*ast.CompositeLit); ok && el.Type == nil && elt != nil {
					f.elided[el] = f.sel(elt)
				}
			}
			return true
		})
		m.files = append(m.files, f)
	}
	return m
}

func (m *archModule) at(n ast.Node) string {
	p := m.fset.Position(n.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// grepLines reports "file:line: what" for each line of file what describes.
func grepLines(file string, what func(line string) string) (out []string) {
	b, err := os.ReadFile(file)
	if err != nil {
		return strs(err.Error())
	}
	for i, line := range strings.Split(string(b), "\n") {
		if w := what(line); w != "" {
			out = append(out, fmt.Sprintf("%s:%d: %s", file, i+1, strings.TrimSpace(w)))
		}
	}
	return out
}

// sel spells a selector on an imported package "pkg.Name", pkg being the
// import path's last element whatever name the import binds; "" otherwise.
func (f *archFile) sel(n ast.Node) string {
	if s, ok := n.(*ast.SelectorExpr); ok {
		if x, ok := s.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
			return f.imports[x.Name] + "." + s.Sel.Name
		}
	}
	return ""
}

// funcName spells a declaration "Type.Method" or "Func"; "" for nil.
func funcName(fd *ast.FuncDecl) string {
	switch {
	case fd == nil:
		return ""
	case fd.Recv == nil:
		return fd.Name.Name
	}
	return lastIdent(fd.Recv.List[0].Type) + "." + fd.Name.Name
}

// lastIdent is the identifier an expression ends in: x, a.b.x and *x end in "x".
func lastIdent(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.SelectorExpr:
		return n.Sel.Name
	case *ast.StarExpr:
		return lastIdent(n.X)
	}
	return ""
}

// strLit is a string literal in its canonical quoted spelling, so `x` and
// "x" read the same; "" for any other node.
func strLit(n ast.Node) string {
	if b, ok := n.(*ast.BasicLit); ok && b.Kind == token.STRING {
		s, _ := strconv.Unquote(b.Value)
		return strconv.Quote(s)
	}
	return ""
}

func strs(s ...string) []string { return s }
