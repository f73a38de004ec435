// sentinel-vet is the repo's domain-specific static analyzer: it
// enforces the simulator invariants the Go compiler cannot see —
// bit-determinism (no wall-clock time or unseeded randomness in
// simulation code, no order-sensitive map iteration), unit safety
// (bytes never silently become pages), sentinel error wrapping, context
// conventions, and map-free hot paths. Copying a mutex by value is left
// to go vet. The six checks run module-wide in one invocation: packages
// load in dependency order, each type-checked once, and every analyzer
// sees one package at a time. See docs/LINTING.md for the checks and the
// //lint:allow suppression syntax.
//
// Usage:
//
//	go run ./cmd/sentinel-vet [-checks determinism,maporder,...] [-json] [packages]
//
// Package patterns are directories relative to the module root; the
// default is ./... (the whole module, skipping testdata). Exit status:
// 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sentinel/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("sentinel-vet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	list := fs.Bool("list", false, "list available checks and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *checks != "" {
		for _, n := range strings.Split(*checks, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	analyzers, err := lint.ByName(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentinel-vet: %v\n", err)
		return 2
	}

	modRoot, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentinel-vet: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(modRoot, "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentinel-vet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(loader, patterns, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sentinel-vet: %v\n", err)
		return 2
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, diags); err != nil {
			fmt.Fprintf(os.Stderr, "sentinel-vet: %v\n", err)
			return 2
		}
	} else {
		lint.WriteText(os.Stdout, diags)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "sentinel-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
