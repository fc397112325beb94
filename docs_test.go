package mpioffload_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose code references must name things that
// exist: a deletion that leaves one of them behind fails here. All but
// benchmarkDoc describe cmd/paper, whose bare flag spans and -exp names
// are checked too; benchmarkDoc documents the benchmark program's flags.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", benchmarkDoc}

const benchmarkDoc = "benchmark/README.md"

// goToolFlags are the go tool flags prose may name as a bare span.
var goToolFlags = map[string]bool{"race": true, "run": true, "count": true, "short": true, "v": true}

// TestDocsNameOnlyWhatExists checks every code span and fenced code line
// of docFiles: each `.go` path is a file of the repo, each `BENCH_x.json`
// a document at the repo root, each `pkg.Name` (and `pkg.Type.Member`,
// and every `/Name` joined to either) whose pkg is a package of this
// module resolves to a declaration, each flag on a `paper` command line is
// a flag cmd/paper registers, and each `make` target is one the Makefile
// defines.
// In the documents of cmd/paper, a span that is one bare `-flag` token
// must also be a cmd/paper flag or a go tool flag, and every `-exp=NAME`
// must name an experiment of cmd/paper's table. Line numbers after a path
// are not checked, and qualifiers that are not module packages (the
// standard library's) are left alone.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	idx := loadRepoIndex(t)
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range idx.check(string(data), doc != benchmarkDoc) {
			t.Errorf("%s:%s", doc, p)
		}
	}
}

// TestDocCheckCatchesDeletedNames feeds the checker a document that names
// a deleted flag, field, method, file, document, make target and
// experiment, so a checker that silently accepts everything cannot pass.
func TestDocCheckCatchesDeletedNames(t *testing.T) {
	idx := loadRepoIndex(t)
	doc := "Set `model.Profile.NumAgents`, or pass `-exp=fig6 -agents 2`.\n" +
		"See `internal/core/agents.go` and `core.NoSuchThing`.\n" +
		"```sh\ngo run ./cmd/paper -exp=fig6 -agents 2 -quick   # -agents\n```\n" +
		"`model.Profile.RequestPoolSize`, `sim.Run`, `time.AfterFunc`, `proto/watchdog.go:25–40`.\n" +
		"Run `make agents-smoke`, then `make ci` and `make mtscale|chaos`.\n" +
		"```sh\nmake chaos-smoke   # make sure it passes\n```\n" +
		"Pass `-topo`, `-race` or `-exp=all`; run `paper -exp=topo` or `-exp=mtscale|chaos`.\n" +
		"Run `examples/rma/main.go`: `mpi.Comm.WinCreate`, then `proto.Engine.Accumulate`.\n" +
		"Call `core.Offloader.Submit/NoSuch` or `sim.Run/NoRun`; `core.Offloader.Submit/Wait` is fine.\n" +
		"Diff `BENCH_topo.json` against `BENCH_net.json`, not `BENCH_*.json`.\n"
	got := idx.check(doc, true)
	want := []string{
		"1: model.Profile.NumAgents: Profile has no field or method NumAgents",
		"1: paper flag -agents is not registered by cmd/paper",
		"2: internal/core/agents.go: no such Go file",
		"2: core.NoSuchThing: package core declares no NoSuchThing",
		"4: paper flag -agents is not registered by cmd/paper",
		"7: make target agents-smoke is not defined in the Makefile",
		"7: make target chaos is not defined in the Makefile",
		"9: make target chaos-smoke is not defined in the Makefile",
		"11: bare flag -topo is neither a cmd/paper flag nor a go tool flag",
		"11: -exp=topo names no experiment of cmd/paper",
		"12: examples/rma/main.go: no such Go file",
		"12: mpi.Comm.WinCreate: Comm has no field or method WinCreate",
		"12: proto.Engine.Accumulate: Engine has no field or method Accumulate",
		"13: core.Offloader.Submit/NoSuch: Offloader has no field or method NoSuch",
		"13: sim.Run/NoRun: package sim declares no NoRun",
		"14: BENCH_topo.json: no such document at the repo root",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// pkgDecls is one module package name's top-level declarations (over
// every directory that uses the name), with the fields and methods of
// each named type.
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool // type → field and method names
	embeds  map[string]bool            // types with promoted members: not checked
}

type repoIndex struct {
	goFiles []string        // slash paths relative to the repo root
	docs    map[string]bool // the BENCH_*.json documents at the repo root
	pkgs    map[string]*pkgDecls
	flags   map[string]bool // cmd/paper's registered flags
	exps    map[string]bool // cmd/paper's experiment names, plus all and list
	targets map[string]bool // the Makefile's targets, patterns expanded
}

func loadRepoIndex(t *testing.T) *repoIndex {
	t.Helper()
	idx := &repoIndex{pkgs: map[string]*pkgDecls{}, flags: map[string]bool{}, targets: map[string]bool{},
		exps: map[string]bool{"all": true, "list": true}}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	idx.addTargets(string(makefile))
	docs, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	idx.docs = map[string]bool{}
	for _, d := range docs {
		idx.docs[d] = true
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		idx.goFiles = append(idx.goFiles, path)
		if strings.Contains(path, "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" || strings.HasSuffix(f.Name.Name, "_test") {
			if strings.HasPrefix(path, "cmd/paper/") && !strings.HasSuffix(path, "_test.go") {
				idx.addFlags(f)
				idx.addExperiments(f)
			}
			return nil
		}
		idx.addDecls(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.pkgs["core"].top) == 0 || len(idx.flags) == 0 || !idx.exps["fig7a"] || !idx.targets["mtscale"] {
		t.Fatal("index found no declarations of package core, no cmd/paper flags, no fig7a experiment or no mtscale target")
	}
	return idx
}

func (idx *repoIndex) addDecls(f *ast.File) {
	p := idx.pkgs[f.Name.Name]
	if p == nil {
		p = &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string]bool{}}
		idx.pkgs[f.Name.Name] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
				continue
			}
			if typ := recvType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.top[typ] = true
					var fields []*ast.Field
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields.List
					case *ast.InterfaceType:
						fields = tt.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
						if len(fld.Names) == 0 {
							p.embeds[typ] = true
						}
					}
				}
			}
		}
	}
}

// recvType names the type of a method receiver (T, *T, T[P]).
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// addFlags records the name of every flag.XxxVar(&v, "name", …) and
// flag.Xxx("name", …) call in a cmd/paper file.
func (idx *repoIndex) addFlags(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					idx.flags[s] = true
				}
				break
			}
		}
		return true
	})
}

// addExperiments records the name (the first field) of every entry of
// the composite literal cmd/paper assigns to its experiments table.
func (idx *repoIndex) addExperiments(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "experiments" || len(vs.Values) != 1 {
			return true
		}
		table, ok := vs.Values[0].(*ast.CompositeLit)
		if !ok {
			return false
		}
		for _, e := range table.Elts {
			if row, ok := e.(*ast.CompositeLit); ok && len(row.Elts) > 0 {
				if lit, ok := row.Elts[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						idx.exps[s] = true
					}
				}
			}
		}
		return false
	})
}

// addTargets records every target a rule of the Makefile defines, with
// $(DOCS) expanded over the DOCS list.
func (idx *repoIndex) addTargets(makefile string) {
	var docs []string
	for _, line := range strings.Split(makefile, "\n") {
		if v, ok := strings.CutPrefix(line, "DOCS :="); ok {
			docs = strings.Fields(v)
		}
	}
	for _, line := range strings.Split(makefile, "\n") {
		if line == "" || strings.ContainsRune(" \t#.", rune(line[0])) {
			continue
		}
		line = strings.ReplaceAll(line, "$(DOCS)", strings.Join(docs, " "))
		names, rest, ok := strings.Cut(line, ":")
		if !ok || strings.HasPrefix(rest, "=") {
			continue // not a rule (a := assignment)
		}
		for _, name := range strings.Fields(names) {
			idx.targets[name] = true
		}
	}
}

// anyMember reports whether some type of the package declares name: prose
// often writes a method as pkg.Method (core.Submit for
// core.Offloader.Submit).
func (p *pkgDecls) anyMember(name string) bool {
	for _, m := range p.members {
		if m[name] {
			return true
		}
	}
	return false
}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	bareFlag = regexp.MustCompile(`^-([a-z][a-z0-9-]*)(=\S*)?$`)
	expName  = regexp.MustCompile(`-exp=([a-z0-9|]+)`)
	pkgRef   = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?((?:/[A-Z]\w*)*)`)
	benchDoc = regexp.MustCompile(`^BENCH_\w+\.json$`)
	lineNum  = regexp.MustCompile(`:\d+([–-]\d+)?$`)
)

// check returns one "line: problem" string per reference in doc that
// names nothing, in document order. paperDoc adds the checks that only
// hold in a document of cmd/paper: bare flag spans and -exp names.
func (idx *repoIndex) check(doc string, paperDoc bool) []string {
	var out []string
	fenced := false
	sc := bufio.NewScanner(strings.NewReader(doc))
	for ln := 1; sc.Scan(); ln++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		var frags []string
		if fenced {
			frags = []string{line}
		} else {
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				frags = append(frags, m[1])
			}
		}
		for _, fr := range frags {
			msgs := idx.checkFragment(fr)
			if paperDoc {
				msgs = append(msgs, idx.checkPaperFragment(fr, fenced)...)
			}
			for _, msg := range msgs {
				out = append(out, fmt.Sprintf("%d: %s", ln, msg))
			}
		}
	}
	return out
}

func (idx *repoIndex) checkFragment(fr string) []string {
	var out []string
	for _, tok := range strings.FieldsFunc(fr, func(r rune) bool {
		return strings.ContainsRune(" \t()[]{},;'\"|<>=", r)
	}) {
		tok = strings.TrimRight(lineNum.ReplaceAllString(tok, ""), ".:")
		if strings.HasSuffix(tok, ".go") && !strings.ContainsAny(tok, "*$") && !idx.goFileExists(tok) {
			out = append(out, tok+": no such Go file")
		}
		if benchDoc.MatchString(tok) && !idx.docs[tok] {
			out = append(out, tok+": no such document at the repo root")
		}
	}
	for _, m := range pkgRef.FindAllStringSubmatch(fr, -1) {
		p := idx.pkgs[m[1]]
		if p == nil {
			continue // not a module package
		}
		ref := strings.TrimLeft(m[0], "/ \t`(")
		if !p.top[m[2]] && !p.anyMember(m[2]) {
			out = append(out, fmt.Sprintf("%s: package %s declares no %s", ref, m[1], m[2]))
			continue
		}
		// pkg.Type.A/B/C names members of Type; pkg.A/B/C names more of pkg.
		joined := strings.Split(m[4], "/")[1:]
		if m[3] == "" {
			for _, name := range joined {
				if !p.top[name] && !p.anyMember(name) {
					out = append(out, fmt.Sprintf("%s: package %s declares no %s", ref, m[1], name))
				}
			}
		} else if p.members[m[2]] != nil && !p.embeds[m[2]] {
			for _, name := range append([]string{m[3]}, joined...) {
				if !p.members[m[2]][name] {
					out = append(out, fmt.Sprintf("%s: %s has no field or method %s", ref, m[2], name))
				}
			}
		}
	}
	for _, f := range paperFlags(fr) {
		if !idx.flags[f] {
			out = append(out, fmt.Sprintf("paper flag -%s is not registered by cmd/paper", f))
		}
	}
	for _, tgt := range makeTargets(fr) {
		if !idx.targets[tgt] {
			out = append(out, fmt.Sprintf("make target %s is not defined in the Makefile", tgt))
		}
	}
	return out
}

// checkPaperFragment checks what only a document of cmd/paper promises: a
// span that is one bare -flag token names a cmd/paper or go tool flag, and
// every -exp=NAME (or -exp=a|b) names experiments of the table.
func (idx *repoIndex) checkPaperFragment(fr string, fenced bool) []string {
	var out []string
	if m := bareFlag.FindStringSubmatch(fr); m != nil && !fenced && !idx.flags[m[1]] && !goToolFlags[m[1]] {
		out = append(out, fmt.Sprintf("bare flag -%s is neither a cmd/paper flag nor a go tool flag", m[1]))
	}
	for _, m := range expName.FindAllStringSubmatch(fr, -1) {
		for _, name := range strings.Split(m[1], "|") {
			if name != "" && !idx.exps[name] {
				out = append(out, fmt.Sprintf("-exp=%s names no experiment of cmd/paper", name))
			}
		}
	}
	return out
}

// makeTargets returns the targets named on every make command line in a
// fragment: the arguments after `make` that are neither flags nor variable
// assignments, up to the end of that shell command. `make a|b` names a
// and b.
func makeTargets(fr string) []string {
	var out []string
	in := false
	for _, tok := range strings.Fields(fr) {
		switch {
		case strings.HasPrefix(tok, "#"):
			return out
		case tok == "|" || tok == "&&" || tok == ";" || strings.HasPrefix(tok, ">"):
			in = false
		case tok == "make":
			in = true
		case in && !strings.HasPrefix(tok, "-") && !strings.Contains(tok, "="):
			out = append(out, strings.Split(tok, "|")...)
		}
	}
	return out
}

// goFileExists resolves a path as written in prose: repo-relative, or a
// trailing part of a repo path (proto/rel.go), or a bare file name.
func (idx *repoIndex) goFileExists(p string) bool {
	p = strings.TrimPrefix(p, "./")
	for _, f := range idx.goFiles {
		if f == p || strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	return false
}

// paperFlags returns the flag names on every paper command line in a
// fragment: the tokens starting with '-' after `go run ./cmd/paper`, a
// `paper` (or …/paper) binary, or a bare argument list that opens with
// -exp=, up to the end of that shell command.
func paperFlags(fr string) []string {
	toks := strings.Fields(fr)
	var out []string
	in := len(toks) > 0 && strings.HasPrefix(toks[0], "-exp=")
	for i, tok := range toks {
		switch {
		case tok == "|" || tok == "&&" || tok == ";" || strings.HasPrefix(tok, "#") ||
			strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>"):
			in = false
		case tok == "./cmd/paper" || tok == "cmd/paper":
			in = i >= 2 && toks[i-2] == "go" && toks[i-1] == "run"
		case tok == "paper" || strings.HasSuffix(tok, "/paper"):
			in = true
		case in && len(tok) > 1 && tok[0] == '-' || in && strings.HasPrefix(tok, "[-"):
			for _, f := range strings.Split(strings.Trim(tok, "[]"), "/") { // -drop/-dup
				name, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
				if name != "" && name[0] >= 'a' && name[0] <= 'z' {
					out = append(out, name)
				}
			}
		}
	}
	return out
}
