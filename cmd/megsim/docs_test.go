package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// flagDef matches a flag definition in main.go: fs.String("name", ...).
	flagDef = regexp.MustCompile(`fs\.\w+\("([a-z][a-z0-9-]*)"`)
	// pkgRef matches a doc's mention of a command or example package.
	pkgRef = regexp.MustCompile(`\b(cmd|examples)/([A-Za-z0-9_]+)`)
	// flagArg matches a flag argument on a command line.
	flagArg = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)`)
)

// docDrift lists what doc says that the tree at root does not have: a
// cmd/<x> or examples/<x> package that does not exist, or a megsim
// command line (`go run ./cmd/megsim …` or a built `…/megsim …`) using
// a flag megsim does not define.
func docDrift(doc, root string, flags map[string]bool) []string {
	var drift []string
	for _, m := range pkgRef.FindAllStringSubmatch(doc, -1) {
		if _, err := os.Stat(filepath.Join(root, m[1], m[2])); err != nil {
			drift = append(drift, "names missing package "+m[0])
		}
	}
	for _, line := range strings.Split(strings.ReplaceAll(doc, "\\\n", " "), "\n") {
		var args string
		if i := strings.Index(line, "go run ./cmd/megsim "); i >= 0 {
			args = line[i+len("go run ./cmd/megsim "):]
		} else if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(f[0], "/megsim") {
			args = strings.TrimSpace(line)[len(f[0]):]
		} else {
			continue
		}
		if i := strings.Index(args, "#"); i >= 0 {
			args = args[:i]
		}
		for _, tok := range strings.Fields(args) {
			if m := flagArg.FindStringSubmatch(tok); m != nil && !flags[m[1]] {
				drift = append(drift, "megsim has no flag -"+m[1]+": "+strings.TrimSpace(line))
			}
		}
	}
	return drift
}

// TestDocsNameWhatExists keeps the run instructions in README.md,
// DESIGN.md and the verify skill in step with the tree: every package
// they name exists and every megsim command line they give parses.
func TestDocsNameWhatExists(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
		flags[m[1]] = true
	}
	if !flags["full"] || !flags["benchmark"] {
		t.Fatalf("flag definitions not found in main.go: %v", flags)
	}
	root := filepath.Join("..", "..")

	stale := "go run ./cmd/gpusim -benchmark hcr\n" +
		"go run ./examples/quickstart\n" +
		"go run ./cmd/megsim -benchmark hcr \\\n    -workers 2\n"
	if got := docDrift(stale, root, flags); len(got) != 3 {
		t.Fatalf("stale doc: drift %q, want the gpusim, quickstart and -workers lines", got)
	}

	for _, doc := range []string{"README.md", "DESIGN.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docDrift(string(data), root, flags) {
			t.Errorf("%s %s", doc, d)
		}
	}
}
