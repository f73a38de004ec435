package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestTraceSchemaClosed keeps the trace schema closed: every Kind
// constant declared in trace.go has exactly one schema row, every row
// renders both as text and in Chrome, and docs/TRACING.md documents
// every kind and every export format in backticks.
func TestTraceSchemaClosed(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "trace.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[Kind]string{} // value -> constant name
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Kind" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("%s: want a string literal value", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				declared[Kind(v)] = name.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("no Kind constants found in trace.go")
	}

	rows := map[Kind]int{}
	for _, r := range schema {
		rows[r.kind]++
		if _, ok := declared[r.kind]; !ok {
			t.Errorf("schema row %q has no Kind constant in trace.go", r.kind)
		}
		if r.text == nil || r.chrome == nil {
			t.Errorf("schema row %q lacks a text or Chrome renderer", r.kind)
		}
	}
	for k, name := range declared {
		if rows[k] != 1 {
			t.Errorf("trace kind %s (%q) has %d schema rows, want 1", name, k, rows[k])
		}
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "TRACING.md"))
	if err != nil {
		t.Fatal(err)
	}
	for k, name := range declared {
		if !strings.Contains(string(doc), "`"+string(k)+"`") {
			t.Errorf("trace kind %s (%q) is not documented in docs/TRACING.md", name, k)
		}
	}
	for _, f := range Formats() {
		if !strings.Contains(string(doc), "`"+f+"`") {
			t.Errorf("export format %q is not documented in docs/TRACING.md", f)
		}
	}
}
