// Command rffsite gives a package's event calls static sites. It rewrites
// every call w.M(args) of an event method M on *exec.Thread in the
// package's non-test files to w.MAt(site, args), and writes sites_gen.go
// declaring each site once:
//
//	var site_cs_120 = exec.SiteAt("cs.go:120")
//
// A site is named after the file and the line of the method name, the
// location exec's callerLoc recovers for the same call by unwinding the
// stack at every event, so the events are identical and only the per-event
// unwind goes (see exec.Site and DESIGN.md §4.1).
//
// The event methods are read from *exec.Thread's method set: every M with
// a sibling MAt whose first parameter is an exec.Site. Calls rffsite
// cannot place statically keep callerLoc: method values, calls in defer
// and go statements, and methods on other types. Calls it rewrote earlier
// are renamed after their current line, so a rerun after an edit is
// enough, and a second run changes nothing. Files with event calls are
// written gofmt-formatted, and their lines are counted after formatting.
//
// Usage, from a go:generate line in the package directory:
//
//	//go:generate go run rff/cmd/rffsite
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/format"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	execPath   = "rff/internal/exec"
	genFile    = "sites_gen.go"
	sitePrefix = "site_"
)

func main() {
	files, err := generate(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rffsite:", err)
		os.Exit(1)
	}
	for path, src := range files {
		if src == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, src, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rffsite:", err)
			os.Exit(1)
		}
	}
}

// generate returns every file of the package in dir that differs from
// what rffsite would write, keyed by path, with its new content; a nil
// content means the file should be removed.
func generate(dir string) (map[string][]byte, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	srcs := map[string][]byte{}
	for _, name := range append(bp.GoFiles, genFile) {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil && !(name == genFile && os.IsNotExist(err)) {
			return nil, err
		}
		if src != nil {
			srcs[name] = src
		}
	}
	out, err := sites(dir, srcs)
	if err != nil {
		return nil, err
	}
	changed := map[string][]byte{}
	for name, src := range out {
		if !bytes.Equal(src, srcs[name]) {
			changed[filepath.Join(dir, name)] = src
		}
	}
	if _, ok := srcs[genFile]; ok && out[genFile] == nil {
		changed[filepath.Join(dir, genFile)] = nil
	}
	return changed, nil
}

// sites rewrites the package whose non-test files, keyed by base name,
// are srcs, as if they were in dir (imports resolve from there). It
// returns the files as rffsite writes them: every source with its event
// calls rewritten, and the generated table, absent if there are no sites.
func sites(dir string, srcs map[string][]byte) (map[string][]byte, error) {
	var names []string
	for name := range srcs {
		if name != genFile { // regenerated from scratch: its sites read as undefined
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	files := make([]*ast.File, len(names))
	formatted := make([][]byte, len(names))
	for i, name := range names {
		// Sites are named after lines of the formatted source, the one
		// written: gofmt can join or split lines of an unformatted one.
		src, err := format.Source(srcs[name])
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files[i], formatted[i] = f, src
	}

	info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Uses: map[*ast.Ident]types.Object{}}
	var typeErr error
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "source", nil),
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && strings.HasPrefix(te.Msg, "undefined: "+sitePrefix) {
				return
			}
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	pkg, _ := conf.Check(filepath.Base(dir), fset, files, info)
	if typeErr != nil {
		return nil, typeErr
	}

	out := map[string][]byte{}
	r := newRewriter(pkg, info)
	for i, f := range files {
		src, err := r.rewrite(fset, f, names[i], formatted[i])
		if err != nil {
			return nil, err
		}
		if src == nil { // no event calls: leave the file as it is
			src = srcs[names[i]]
		}
		out[names[i]] = src
	}
	gen, err := r.table(pkg.Name())
	if gen != nil {
		out[genFile] = gen
	}
	return out, err
}

// rewriter rewrites the event calls of one package and collects their
// sites.
type rewriter struct {
	info   *types.Info
	thread types.Type       // *exec.Thread; nil if the package does not import exec
	event  map[string]bool  // every event method M with a sibling MAt
	isAt   map[string]bool  // every such MAt
	sites  map[string]place // site variable -> its call site
}

// place is a call site: a file's base name and the line of the method name.
type place struct {
	file string
	line int
}

func (p place) String() string { return p.file + ":" + strconv.Itoa(p.line) }

// newRewriter reads the event method pairs off *exec.Thread's method set.
func newRewriter(pkg *types.Package, info *types.Info) *rewriter {
	r := &rewriter{info: info, event: map[string]bool{}, isAt: map[string]bool{}, sites: map[string]place{}}
	var execPkg *types.Package
	for _, p := range pkg.Imports() {
		if p.Path() == execPath {
			execPkg = p
		}
	}
	if execPkg == nil {
		return r
	}
	r.thread = types.NewPointer(execPkg.Scope().Lookup("Thread").Type())
	site := execPkg.Scope().Lookup("Site").Type()
	mset := types.NewMethodSet(r.thread)
	for i := 0; i < mset.Len(); i++ {
		name := mset.At(i).Obj().Name()
		sel := mset.Lookup(execPkg, name+"At")
		if sel == nil {
			continue
		}
		params := sel.Type().(*types.Signature).Params()
		if params.Len() > 0 && types.Identical(params.At(0).Type(), site) {
			r.event[name], r.isAt[name+"At"] = true, true
		}
	}
	return r
}

// edit replaces src[off:end] with text.
type edit struct {
	off, end int
	text     string
}

// rewrite returns file f (named name, with formatted source src) with
// every event call on *exec.Thread in its …At form at its generated site,
// or nil if f has no such call.
func (r *rewriter) rewrite(fset *token.FileSet, f *ast.File, name string, src []byte) ([]byte, error) {
	if r.thread == nil {
		return nil, nil
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }
	skip := map[*ast.CallExpr]bool{}
	var edits []edit
	var err error
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			skip[n.Call] = true // runs at function exit, not at its line
		case *ast.GoStmt:
			skip[n.Call] = true
		case *ast.CallExpr:
			fun, ok := n.Fun.(*ast.SelectorExpr)
			sel := r.info.Selections[fun]
			if !ok || skip[n] || sel == nil || sel.Kind() != types.MethodVal || !types.Identical(sel.Recv(), r.thread) {
				return true
			}
			at := place{name, fset.Position(fun.Sel.Pos()).Line}
			site := siteName(at)
			switch m := fun.Sel.Name; {
			case r.event[m]:
				text := site
				if len(n.Args) > 0 {
					text += ", "
				}
				edits = append(edits,
					edit{off(fun.Sel.End()), off(fun.Sel.End()), "At"},
					edit{off(n.Lparen) + 1, off(n.Lparen) + 1, text})
			case r.isAt[m] && r.generated(n):
				if id := n.Args[0].(*ast.Ident); id.Name != site {
					edits = append(edits, edit{off(id.Pos()), off(id.End()), site})
				}
			default:
				return true
			}
			if old, dup := r.sites[site]; dup && old != at && err == nil {
				err = fmt.Errorf("sites %s and %s would both be named %s", old, at, site)
			}
			r.sites[site] = at
			found = true
		}
		return true
	})
	if err != nil || !found {
		return nil, err
	}
	if len(edits) == 0 {
		return src, nil
	}
	sort.Slice(edits, func(i, j int) bool { return edits[i].off > edits[j].off })
	out := append([]byte(nil), src...)
	for _, e := range edits {
		out = append(out[:e.off], append([]byte(e.text), out[e.end:]...)...)
	}
	return format.Source(out)
}

// generated reports whether call is an …At call rffsite wrote: its site
// is a variable named like a generated one and declared nowhere but the
// generated file.
func (r *rewriter) generated(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	return ok && strings.HasPrefix(id.Name, sitePrefix) && r.info.Uses[id] == nil
}

// siteName names the site at p: site_<file>_<line>, with every character
// of the file's base name that is not a letter or digit as '_'.
func siteName(p place) string {
	base := strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			return c
		}
		return '_'
	}, strings.TrimSuffix(p.file, ".go"))
	return sitePrefix + base + "_" + strconv.Itoa(p.line)
}

// table renders the generated file declaring every collected site, or
// nil if there are none.
func (r *rewriter) table(pkgName string) ([]byte, error) {
	if len(r.sites) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(r.sites))
	for name := range r.sites {
		names = append(names, name)
	}
	// Order by file, then by line, so the table reads like the sources.
	sort.Slice(names, func(i, j int) bool {
		pi, pj := r.sites[names[i]], r.sites[names[j]]
		return pi.file < pj.file || pi.file == pj.file && pi.line < pj.line
	})
	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by rffsite. DO NOT EDIT.\n\npackage %s\n\nimport %q\n\n", pkgName, execPath)
	b.WriteString("// The static site of every event call in this package, one per file\n// and line (see exec.Site).\nvar (\n")
	for _, name := range names {
		fmt.Fprintf(&b, "\t%s = exec.SiteAt(%q)\n", name, r.sites[name].String())
	}
	b.WriteString(")\n")
	return format.Source(b.Bytes())
}
