// Command reachability lists the exported functions and methods under
// internal/ that no non-test Go file of the module references, and
// gates that list against a committed allowlist.
//
// The scan is name-based: a declaration counts as referenced when any
// identifier with its name appears in a non-test file outside
// perfbench/ (perfbench is a module of its own), other than the
// declaration's own name. Types, variables and constants are not
// listed. Methods named String, Error, ServeHTTP, MarshalJSON or
// UnmarshalJSON are skipped: the standard library calls them through
// interfaces, so no source file names them. A name shared by two
// declarations counts as referenced for both as soon as either is used,
// so the list can miss dead code but never names live code.
//
// Usage, from the repository root:
//
//	go run ./scripts/reachability                   # print the list
//	go run ./scripts/reachability -allow FILE       # fail on entries not in FILE
//	go run ./scripts/reachability -root DIR         # scan another checkout
//
// With -allow the command exits 1 when the scan finds an entry that is
// not on the allowlist, and notes entries on the list the scan no longer
// finds, so the list can shrink.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// interfaceMethods are called by the standard library through an
// interface, never by name in this module's source.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

func main() {
	root := flag.String("root", ".", "module root to scan")
	allow := flag.String("allow", "", "allowlist to check the scan against")
	flag.Parse()

	found, err := scan(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachability:", err)
		os.Exit(2)
	}
	if *allow == "" {
		for _, e := range found {
			fmt.Println(e)
		}
		return
	}
	allowed, err := readList(*allow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reachability:", err)
		os.Exit(2)
	}
	inScan := make(map[string]bool, len(found))
	var added []string
	for _, e := range found {
		inScan[e] = true
		if !allowed[e] {
			added = append(added, e)
		}
	}
	var gone []string
	for e := range allowed {
		if !inScan[e] {
			gone = append(gone, e)
		}
	}
	sort.Strings(gone)
	for _, e := range gone {
		fmt.Printf("reachability: %s is referenced or gone now; drop it from %s\n", e, *allow)
	}
	for _, e := range added {
		fmt.Printf("reachability: %s is exported but no non-test file references it\n", e)
	}
	if len(added) > 0 {
		fmt.Printf("reachability: %d new unreferenced declaration(s); call, delete or unexport them\n", len(added))
		os.Exit(1)
	}
	fmt.Printf("reachability: %d unreferenced declaration(s), all on %s\n", len(found), *allow)
}

// decl is one exported function or method declared under internal/.
type decl struct {
	entry string // "internal/pkg.Func" or "internal/pkg.Type.Method"
	name  string
	ident *ast.Ident
}

// scan parses every non-test Go file of the module outside perfbench/
// and testdata/ and returns the sorted entries of the exported
// functions and methods under internal/ whose names nothing else uses.
func scan(root string) ([]string, error) {
	fset := token.NewFileSet()
	var decls []decl
	var files []*ast.File
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == "perfbench" || d.Name() == "testdata" || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if strings.HasPrefix(rel, "internal/") {
			decls = append(decls, exported(filepath.ToSlash(filepath.Dir(rel)), f)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	own := make(map[*ast.Ident]bool, len(decls))
	for _, d := range decls {
		own[d.ident] = true
	}
	used := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var out []string
	for _, d := range decls {
		if !used[d.name] {
			out = append(out, d.entry)
		}
	}
	sort.Strings(out)
	return out, nil
}

// exported returns the file's exported functions and methods, skipping
// the methods the standard library calls through interfaces.
func exported(pkg string, f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !fn.Name.IsExported() {
			continue
		}
		entry := pkg + "." + fn.Name.Name
		if fn.Recv != nil {
			if interfaceMethods[fn.Name.Name] {
				continue
			}
			entry = pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
		}
		out = append(out, decl{entry: entry, name: fn.Name.Name, ident: fn.Name})
	}
	return out
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvType(t.X)
	case *ast.IndexExpr:
		return recvType(t.X)
	case *ast.IndexListExpr:
		return recvType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return "?"
}

// readList reads an allowlist: one entry per line; blank lines and
// lines starting with # are ignored.
func readList(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "#") {
			out[line] = true
		}
	}
	return out, sc.Err()
}
