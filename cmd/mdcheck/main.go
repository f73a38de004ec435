// mdcheck is the CI markdown checker. It scans the given markdown
// files for two kinds of rot:
//
//   - inline links and images whose relative targets do not exist
//     (external http/https/mailto links and pure in-page anchors are
//     skipped — CI must not depend on the network; anchored file links
//     like doc.md#section are checked for the file part only), and
//   - backticked references to Go packages and files (`internal/...`,
//     `cmd/...`, `examples/...`, `docs/...`) that no longer exist in
//     the tree, so prose does not keep naming packages that were
//     renamed or deleted. A trailing `/...` wildcard checks the prefix
//     directory; a trailing :line suffix is ignored; the package.Symbol
//     citation form (`internal/memsys.Channel`) checks the package
//     directory.
//
// Link targets resolve relative to the referencing file; Go paths
// resolve relative to the repo root (the working directory), which is
// how docs cite them.
//
// With -cmds FILE.md, mdcheck additionally enforces command coverage:
// every binary under cmd/ must be mentioned by name in FILE.md
// (normally the README), so new tools cannot land undocumented.
//
// Usage: go run ./cmd/mdcheck -cmds README.md README.md docs/*.md
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRE matches inline markdown links and images: [text](target) and
// ![alt](target). Reference-style links are rare in this repo and not
// checked. The target capture stops at the first ')' or whitespace,
// which also drops optional titles: [t](path "title").
var linkRE = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// codeSpanRE matches inline code spans; goPathRE then decides whether a
// span's content is a repo path claim worth checking.
var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// goPathRE matches spans that name a Go package or file in this repo:
// an optional ./ or module-path prefix, then a tracked top-level area,
// then path segments, with an optional /... wildcard or :line suffix.
// Spans with spaces, flags, or glob characters do not match.
var goPathRE = regexp.MustCompile(`^(?:\./)?(?:sentinel/)?((?:internal|cmd|examples|docs)(?:/[A-Za-z0-9_.\-]+)*?)(/\.\.\.)?(:[0-9]+)?$`)

// symbolRE recognizes the package.Symbol citation form: the last path
// segment is pkgname.Exported, where the exported identifier starts
// with an uppercase letter (so file names like runtime.go don't match).
var symbolRE = regexp.MustCompile(`^(.*[^./])\.[A-Z][A-Za-z0-9_]*$`)

func main() {
	cmds := flag.String("cmds", "", "markdown file that must mention every binary under cmd/ by name")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mdcheck [-cmds README.md] FILE.md [FILE.md ...]")
		os.Exit(2)
	}
	broken := checkFiles(".", flag.Args(), os.Stderr)
	if *cmds != "" {
		broken += checkCmdCoverage(".", *cmds, os.Stderr)
	}
	if broken > 0 {
		os.Exit(1)
	}
}

// checkFiles scans the markdown files, resolving Go-path references
// against root, and returns the number of broken references found
// (reporting each to w).
func checkFiles(root string, files []string, w io.Writer) int {
	broken := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(w, "mdcheck: %v\n", err)
			broken++
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			broken += checkLinks(file, i+1, line, w)
			broken += checkGoPaths(root, file, i+1, line, w)
		}
	}
	if broken > 0 {
		fmt.Fprintf(w, "mdcheck: %d broken reference(s)\n", broken)
	}
	return broken
}

// checkLinks validates the relative link targets on one line.
func checkLinks(file string, lineno int, line string, w io.Writer) int {
	broken := 0
	for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
		target := m[1]
		if skip(target) {
			continue
		}
		if frag := strings.IndexByte(target, '#'); frag >= 0 {
			target = target[:frag]
			if target == "" {
				continue // in-page anchor
			}
		}
		resolved := filepath.Join(filepath.Dir(file), target)
		if _, err := os.Stat(resolved); err != nil {
			fmt.Fprintf(w, "%s:%d: broken link %q (%s)\n", file, lineno, m[1], resolved)
			broken++
		}
	}
	return broken
}

// checkGoPaths validates the backticked repo-path references on one
// line.
func checkGoPaths(root, file string, lineno int, line string, w io.Writer) int {
	broken := 0
	for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
		gp := goPathRE.FindStringSubmatch(m[1])
		if gp == nil {
			continue
		}
		path := gp[1]
		// package.Symbol citations (`internal/memsys.Channel`) name an
		// exported identifier inside a package: strip the symbol and
		// check the package directory.
		if sym := symbolRE.FindStringSubmatch(path); sym != nil {
			path = sym[1]
		}
		resolved := filepath.Join(root, filepath.FromSlash(path))
		if _, err := os.Stat(resolved); err != nil {
			fmt.Fprintf(w, "%s:%d: stale Go path reference %q (%s does not exist)\n",
				file, lineno, m[1], resolved)
			broken++
		}
	}
	return broken
}

// checkCmdCoverage enforces the cmd-coverage rule: every directory
// under root/cmd is a binary, and each binary's name must appear
// somewhere in the given markdown file. It returns the number of
// undocumented binaries (reporting each to w).
func checkCmdCoverage(root, file string, w io.Writer) int {
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		fmt.Fprintf(w, "mdcheck: -cmds: %v\n", err)
		return 1
	}
	data, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(w, "mdcheck: -cmds: %v\n", err)
		return 1
	}
	missing := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(string(data), e.Name()) {
			fmt.Fprintf(w, "%s: binary cmd/%s is not mentioned (every tool must be documented)\n",
				file, e.Name())
			missing++
		}
	}
	if missing > 0 {
		fmt.Fprintf(w, "mdcheck: %d undocumented command(s)\n", missing)
	}
	return missing
}

func skip(target string) bool {
	for _, p := range []string{"http://", "https://", "mailto:"} {
		if strings.HasPrefix(target, p) {
			return true
		}
	}
	return false
}
