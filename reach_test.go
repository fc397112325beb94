package mpioffload_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableList names every function, method, type, const and var of
// the module that no main package can reach, each with the reason it is
// kept. The list may only shrink: code nothing runs is deleted, unless it
// is one of the closed kinds of keeper the file's header defines —
// keepReasons, or interface:<I> for a method called through an interface
// the checker cannot see.
const unreachableList = "testdata/unreachable.txt"

var keepReasons = map[string]bool{"observer": true, "reference": true, "chaos": true, "app": true}

// TestEverythingReachable computes, by Rapid Type Analysis over go/types,
// what every main package of the module (cmd/*, examples/*, benchmark)
// can reach, and fails on any unreachable declaration unreachableList does
// not name, and on any entry of the list that is gone or now reachable.
func TestEverythingReachable(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := checkPackages(t, fset, goList(t, "./..."))
	got := unreachable(pkgs)
	if len(got) == 0 {
		t.Fatal("the analysis found nothing unreachable: it lost the module's packages")
	}
	if testing.Verbose() {
		logPerMain(t, fset, pkgs, got)
	}
	want := readUnreachableList(t)
	for _, e := range got {
		if _, ok := want[e]; !ok {
			t.Errorf("%s is unreachable from every main package: delete it, or list it in %s with a reason", e, unreachableList)
		}
		delete(want, e)
	}
	for e := range want {
		t.Errorf("%s: listed in %s, but it is gone or now reachable: remove the line", e, unreachableList)
	}
}

// TestReachabilityCatchesDeadCode runs the analysis over an in-memory
// module: a dead function must be reported, and what is reached only
// through an interface call, fmt, flag, a function value or a generic
// instantiation must not be.
func TestReachabilityCatchesDeadCode(t *testing.T) {
	lib := `package lib

import ("flag"; "fmt")

type Shape interface{ Area() float64; Perimeter() float64 }
type Square struct{ s float64 }
func (q Square) Area() float64      { return q.s * q.s }
func (q Square) Perimeter() float64 { return 4 * q.s }
func (q Square) Scale() Square      { return Square{2 * q.s} }
func Total(ss []Shape) (a float64) { for _, s := range ss { a += s.Area() }; return a }

type Name string
func (n Name) String() string { return string(n) }
func Show(n Name) string { return fmt.Sprint(n) }

type Level int
func (l *Level) String() string     { return fmt.Sprint(int(*l)) }
func (l *Level) Set(s string) error { _, err := fmt.Sscan(s, (*int)(l)); return err }
func Register(fs *flag.FlagSet, l *Level) { fs.Var(l, "level", "") }

func Apply(f func(int) int, x int) int { return f(x) }
func Double(x int) int { return 2 * x }

type Stack[T any] struct{ xs []T }
func (s *Stack[T]) Push(x T) { s.xs = append(s.xs, x) }
func (s *Stack[T]) Len() int  { return len(s.xs) }

func Dead() int   { return deadHelper() }
func deadHelper() int { return 1 }
type Unused struct{}
const Limit = 3
`
	main := `package main

import ("flag"; "fmt"; "example/lib")

func main() {
	var l lib.Level
	lib.Register(flag.CommandLine, &l)
	var s lib.Stack[int]
	s.Push(lib.Apply(lib.Double, 1))
	fmt.Println(lib.Total([]lib.Shape{lib.Square{}}), lib.Show("x"), l)
}
`
	std := goList(t, "flag", "fmt")
	pkgs := append(std,
		&goPkg{ImportPath: "example/lib", Name: "lib", Imports: []string{"flag", "fmt"}, src: lib},
		&goPkg{ImportPath: "example/cmd", Name: "main", Imports: []string{"flag", "fmt", "example/lib"}, src: main})
	fset := token.NewFileSet()
	got := unreachable(checkPackages(t, fset, pkgs))
	want := []string{
		"lib.Dead",
		"lib.Limit",
		"lib.Shape.Perimeter",
		"lib.Square.Perimeter",
		"lib.Square.Scale",
		"lib.Stack.Len",
		"lib.Unused",
		"lib.deadHelper",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unreachable:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// goPkg is one package as `go list -json` describes it. The fixture test
// builds module packages in memory: src then holds their only file.
type goPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Standard   bool
	src        string
}

// goList returns the packages matching the patterns and all their
// dependencies, dependencies first, with the export data of each.
func goList(t *testing.T, patterns ...string) []*goPkg {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*goPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(goPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	rel   string // import path without the module prefix: the entry prefix
	main  bool
	runs  bool        // a main, or in the import closure of one: its roots run
	deps  []*reachPkg // the module packages it imports
	scope *types.Scope
	files []*ast.File
	info  *types.Info
}

// checkPackages type-checks the non-standard packages of pkgs (which
// come dependencies first) from source, importing the standard library
// from its export data.
func checkPackages(t *testing.T, fset *token.FileSet, pkgs []*goPkg) []*reachPkg {
	t.Helper()
	export := map[string]string{}
	for _, p := range pkgs {
		if p.Standard {
			export[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := export[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var out []*reachPkg
	byPath := map[string]*reachPkg{}
	module := ""
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		if module == "" || !strings.HasPrefix(p.ImportPath, module+"/") {
			module, _, _ = strings.Cut(p.ImportPath, "/")
		}
		rp := &reachPkg{rel: strings.TrimPrefix(p.ImportPath, module+"/"), main: p.Name == "main"}
		byPath[p.ImportPath] = rp
		for _, dep := range p.Imports {
			if d := byPath[dep]; d != nil {
				rp.deps = append(rp.deps, d)
			}
		}
		if p.src != "" {
			f, err := parser.ParseFile(fset, p.ImportPath+".go", p.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			rp.files = append(rp.files, f)
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			rp.files = append(rp.files, f)
		}
		rp.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, rp.files, rp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		rp.scope = tp.Scope()
		out = append(out, rp)
	}
	markRuns(out, nil)
	return out
}

// markRuns sets runs on the import closure of every main package but
// skip, the main packages themselves included.
func markRuns(pkgs []*reachPkg, skip *reachPkg) {
	for _, p := range pkgs {
		p.runs = false
	}
	var visit func(p *reachPkg)
	visit = func(p *reachPkg) {
		if !p.runs {
			p.runs = true
			for _, d := range p.deps {
				visit(d)
			}
		}
	}
	for _, p := range pkgs {
		if p.main && p != skip {
			visit(p)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reach is Rapid Type Analysis over the module's declarations. The roots
// are the main function, init functions and package-level var initializers
// of every package whose runs is set. A function, type, const or
// var is live when live code refers to it (generic instances count as
// their origin). A method is live when it is referred to, or when its
// receiver type is live and a method of that name is callable through an
// interface: called on an interface value, asserted (type assertions and
// type switch cases to an interface need all its methods), or taken by a
// standard-library parameter (stdCall).
type reach struct {
	decls    map[types.Object]*reachDecl
	live     map[types.Object]bool
	callable map[string]bool
	methods  map[types.Object][]types.Object // receiver type → its methods
	byName   map[string][]types.Object       // method name → methods of that name
	work     []types.Object
}

type reachDecl struct {
	entry string
	recv  types.Object // a method's receiver type
	info  *types.Info
	nodes []ast.Node // what live code the declaration refers to
}

// unreachable returns the sorted entry names of every declaration of
// pkgs that no main package reaches.
func unreachable(pkgs []*reachPkg) []string {
	var out []string
	for e := range unreachableDecls(pkgs) {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// unreachableDecls maps the entry name of every declaration of pkgs that
// no main package reaches to the declaration.
func unreachableDecls(pkgs []*reachPkg) map[string]*reachDecl {
	r := &reach{
		decls:    map[types.Object]*reachDecl{},
		live:     map[types.Object]bool{},
		callable: map[string]bool{},
		methods:  map[types.Object][]types.Object{},
		byName:   map[string][]types.Object{},
	}
	var roots []func()
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					if d.Recv != nil {
						typ := recvType(d.Recv.List[0].Type)
						r.declare(obj, p, typ+"."+d.Name.Name, p.scope.Lookup(typ), d)
						continue
					}
					r.declare(obj, p, d.Name.Name, nil, d)
					if p.runs && (d.Name.Name == "init" || p.main && d.Name.Name == "main") {
						roots = append(roots, func() { r.use(obj) })
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							r.declare(obj, p, s.Name.Name, nil, s)
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, n := range m.Names {
										r.declare(p.info.Defs[n], p, s.Name.Name+"."+n.Name, obj, m.Type)
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									r.declare(p.info.Defs[n], p, n.Name, nil, s)
								}
							}
							if d.Tok == token.VAR && len(s.Values) > 0 && p.runs {
								roots = append(roots, func() { r.walk(p.info, s) })
							}
						}
					}
				}
			}
		}
	}
	// fmt calls these on any operand; the other interfaces the standard
	// library calls come from the signatures live code calls (stdCall).
	r.call("Error")
	r.call("String")
	for _, root := range roots {
		root()
	}
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		d := r.decls[obj]
		for _, n := range d.nodes {
			r.walk(d.info, n)
		}
	}
	out := map[string]*reachDecl{}
	for obj, d := range r.decls {
		if !r.live[obj] {
			out[d.entry] = d
		}
	}
	return out
}

// logPerMain logs, for each main package, the declarations of other
// packages that only it reaches, and their non-comment, non-blank lines:
// what the analysis finds unreachable with that main's roots switched off,
// less what it finds unreachable with every root on (dead).
func logPerMain(t *testing.T, fset *token.FileSet, pkgs []*reachPkg, dead []string) {
	t.Helper()
	defer markRuns(pkgs, nil)
	isDead := map[string]bool{}
	for _, e := range dead {
		isDead[e] = true
	}
	src := map[string][]string{} // file name → its lines
	type row struct {
		main  string
		decls []string
		lines int
	}
	var rows []row
	for _, m := range pkgs {
		if !m.main {
			continue
		}
		markRuns(pkgs, m)
		r := row{main: m.rel}
		lines := map[token.Position]bool{}
		for e, d := range unreachableDecls(pkgs) {
			if isDead[e] || strings.HasPrefix(e, m.rel+".") {
				continue
			}
			r.decls = append(r.decls, e)
			for _, n := range d.nodes {
				from, to := fset.Position(n.Pos()), fset.Position(n.End())
				if src[from.Filename] == nil {
					b, err := os.ReadFile(from.Filename)
					if err != nil {
						t.Fatal(err)
					}
					src[from.Filename] = strings.Split(string(b), "\n")
				}
				for ln := from.Line; ln <= to.Line; ln++ {
					if s := strings.TrimSpace(src[from.Filename][ln-1]); s != "" && !strings.HasPrefix(s, "//") {
						lines[token.Position{Filename: from.Filename, Line: ln}] = true
					}
				}
			}
		}
		sort.Strings(r.decls)
		r.lines = len(lines)
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if len(rows[i].decls) != len(rows[j].decls) {
			return len(rows[i].decls) > len(rows[j].decls)
		}
		return rows[i].main < rows[j].main
	})
	var b strings.Builder
	fmt.Fprintf(&b, "declarations only one main reaches:\n%-24s %5s %5s\n", "main", "decls", "lines")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %5d %5d  %s\n", r.main, len(r.decls), r.lines, strings.Join(r.decls, " "))
	}
	t.Log(b.String())
}

func (r *reach) declare(obj types.Object, p *reachPkg, name string, recv types.Object, node ast.Node) {
	d := r.decls[obj]
	if d == nil {
		d = &reachDecl{entry: p.rel + "." + name, recv: recv, info: p.info}
		r.decls[obj] = d
		if recv != nil {
			r.methods[recv] = append(r.methods[recv], obj)
			r.byName[obj.Name()] = append(r.byName[obj.Name()], obj)
		}
	}
	d.nodes = append(d.nodes, node)
}

func (r *reach) walk(info *types.Info, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				r.use(obj)
			}
		case *ast.TypeAssertExpr:
			if x.Type != nil {
				r.assert(info.TypeOf(x.Type))
			}
		case *ast.CaseClause:
			for _, e := range x.List {
				r.assert(info.TypeOf(e))
			}
		}
		return true
	})
}

// assert records a type assertion or type switch case: one to an
// interface depends on every method of it (a marker method is never
// called, only asserted).
func (r *reach) assert(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			r.call(it.Method(i).Name())
		}
	}
}

// use marks what live code refers to.
func (r *reach) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
		sig := o.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.call(o.Name())
		}
		if r.decls[obj] == nil {
			r.stdCall(sig)
		}
	case *types.Var:
		obj = o.Origin()
	}
	if r.decls[obj] == nil || r.live[obj] {
		return
	}
	r.live[obj] = true
	r.work = append(r.work, obj)
	if n, ok := obj.Type().(*types.Named); ok {
		r.use(n.Obj()) // a const of an iota group names its type only once
	}
	for _, m := range r.methods[obj] {
		if r.callable[m.Name()] {
			r.use(m)
		}
	}
	if d := r.decls[obj]; d.recv != nil {
		r.use(d.recv)
	}
}

// call records that live code can call a method named name through an
// interface: every live type's method of that name goes live.
func (r *reach) call(name string) {
	if r.callable[name] {
		return
	}
	r.callable[name] = true
	for _, m := range r.byName[name] {
		if r.live[r.decls[m].recv] {
			r.use(m)
		}
	}
}

// stdCall treats a call into code outside the module as a call of every
// method of the interfaces its parameters take (io.Writer, flag.Value,
// sort.Interface, heap.Interface, error).
func (r *reach) stdCall(sig *types.Signature) {
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
			t = s.Elem()
		}
		r.assert(t)
	}
}

// readUnreachableList parses unreachableList: an entry and its reason per
// line, # comments and blank lines ignored.
func readUnreachableList(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(unreachableList)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			t.Errorf("%s:%d: want \"<entry> <reason>\", got %q", unreachableList, ln, sc.Text())
			continue
		}
		entry, reason := fields[0], fields[1]
		if iface, ok := strings.CutPrefix(reason, "interface:"); !keepReasons[reason] && (!ok || iface == "") {
			t.Errorf("%s:%d: %s: reason %q is not observer, reference, chaos, app or interface:<iface>", unreachableList, ln, entry, reason)
		}
		if _, dup := out[entry]; dup {
			t.Errorf("%s:%d: %s listed twice", unreachableList, ln, entry)
		}
		out[entry] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
