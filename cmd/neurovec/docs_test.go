package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"neurovec/internal/policy"
)

// The documentation checks pin the repo's markdown to reality: every
// relative link must resolve, every repo path named in backticks must
// exist, every `neurovec <cmd>` in a code fence must be a real subcommand,
// every flag the training guide shows for `neurovec train` must exist in
// the command's flag set, every `METHOD /path` must be a registered route,
// every `rl|costmodel|…` list must name exactly the registered policies,
// and every `-fig` list must name exactly the `neurovec report` figures.
// CI runs these as its doc-check step.

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func docFiles(t *testing.T) []string {
	t.Helper()
	root := repoRoot(t)
	files := []string{filepath.Join(root, "README.md")}
	matches, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, matches...)
}

// TestDocsRelativeLinksResolve checks [text](path) links against the tree.
func TestDocsRelativeLinksResolve(t *testing.T) {
	linkRe := regexp.MustCompile(`\]\(([^)]+)\)`)
	for _, doc := range docFiles(t) {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			resolved := filepath.Join(filepath.Dir(doc), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %q does not exist", filepath.Base(doc), m[1])
			}
		}
	}
}

// TestDocsRepoPathsExist checks that backticked repo paths (`internal/…`,
// `cmd/…`, `docs/…`, `.github/…`, `examples/…`) name real files or
// directories.
func TestDocsRepoPathsExist(t *testing.T) {
	root := repoRoot(t)
	pathRe := regexp.MustCompile("`((?:internal|cmd|docs|examples|\\.github)/[A-Za-z0-9_./-]+)`")
	for _, doc := range docFiles(t) {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range pathRe.FindAllStringSubmatch(string(body), -1) {
			if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
				t.Errorf("%s: repo path `%s` does not exist", filepath.Base(doc), m[1])
			}
		}
	}
}

// fenceCommands extracts `neurovec <sub> …` command lines (with backslash
// continuations folded in) from a markdown file's code fences.
func fenceCommands(t *testing.T, doc string) []string {
	t.Helper()
	body, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	inFence := false
	continuing := false
	for _, line := range strings.Split(string(body), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continuing = false
			continue
		}
		if !inFence {
			continue
		}
		if continuing {
			cmds[len(cmds)-1] += " " + strings.TrimSuffix(trimmed, `\`)
			continuing = strings.HasSuffix(trimmed, `\`)
			continue
		}
		if strings.HasPrefix(trimmed, "neurovec ") {
			cmds = append(cmds, strings.TrimSuffix(trimmed, `\`))
			continuing = strings.HasSuffix(trimmed, `\`)
		}
	}
	return cmds
}

var knownSubcommands = map[string]bool{
	"report": true, "train": true, "annotate": true, "serve": true,
	"brute": true, "sweep": true, "eval": true, "explain": true, "help": true,
	"check": true, "fleet": true,
}

// TestDocsSubcommandsAreReal checks that every `neurovec <sub>` shown in a
// code fence is a subcommand main dispatches on.
func TestDocsSubcommandsAreReal(t *testing.T) {
	for _, doc := range docFiles(t) {
		for _, cmd := range fenceCommands(t, doc) {
			fields := strings.Fields(cmd)
			if len(fields) < 2 {
				continue
			}
			if !knownSubcommands[fields[1]] {
				t.Errorf("%s: unknown subcommand in %q", filepath.Base(doc), cmd)
			}
		}
	}
}

// trainFlagNames lists the real `neurovec train` flags via the command's
// own flag-set constructor.
func trainFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	fs, _ := trainFlagSet()
	names := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { names[f.Name] = true })
	return names
}

// TestDocsTrainFlagsAreReal checks every -flag shown for `neurovec train` —
// in code fences and in TRAINING.md's flags table — against the actual
// flag set.
func TestDocsTrainFlagsAreReal(t *testing.T) {
	names := trainFlagNames(t)
	flagRe := regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`)
	for _, doc := range docFiles(t) {
		for _, cmd := range fenceCommands(t, doc) {
			fields := strings.Fields(cmd)
			if len(fields) < 2 || fields[1] != "train" {
				continue
			}
			for _, m := range flagRe.FindAllStringSubmatch(cmd, -1) {
				if !names[m[1]] {
					t.Errorf("%s: `neurovec train` has no flag -%s (from %q)", filepath.Base(doc), m[1], cmd)
				}
			}
		}
	}

	// TRAINING.md's flags table: every `-flag` between "## Flags" and the
	// next section must exist.
	body, err := os.ReadFile(filepath.Join(repoRoot(t), "docs", "TRAINING.md"))
	if err != nil {
		t.Fatal(err)
	}
	tableRe := regexp.MustCompile("`-([a-z][a-z-]*)`")
	section := string(body)
	if i := strings.Index(section, "## Flags"); i >= 0 {
		section = section[i:]
		if j := strings.Index(section[2:], "\n## "); j >= 0 {
			section = section[:j+2]
		}
	} else {
		t.Fatal("TRAINING.md has no Flags section")
	}
	for _, m := range tableRe.FindAllStringSubmatch(section, -1) {
		if !names[m[1]] {
			t.Errorf("TRAINING.md flags table lists -%s, which `neurovec train` does not define", m[1])
		}
	}
}

// TestDocsListCoreSpans checks that OBSERVABILITY.md's list of pipeline
// stages names every span that internal/core, internal/evalharness and
// internal/trainer start with a literal name, so a new stage cannot land
// undocumented.
func TestDocsListCoreSpans(t *testing.T) {
	root := repoRoot(t)
	body, err := os.ReadFile(filepath.Join(root, "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	list := string(body)
	i := strings.Index(list, "Stages emitted by the\ncompile pipeline")
	if i < 0 {
		t.Fatal("OBSERVABILITY.md has no list of compile pipeline stages")
	}
	list = list[i:]
	if j := strings.Index(list, "\n\n"); j >= 0 {
		list = list[:j]
	}
	spanRe := regexp.MustCompile(`obs\.StartSpan\(ctx, "([^"]+)"\)`)
	for _, pkg := range []string{"core", "evalharness", "trainer"} {
		files, err := filepath.Glob(filepath.Join(root, "internal", pkg, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range spanRe.FindAllStringSubmatch(string(src), -1) {
				found++
				if !strings.Contains(list, "`"+m[1]+"`") {
					t.Errorf("internal/%s/%s starts span %q, which OBSERVABILITY.md's stage list omits", pkg, filepath.Base(f), m[1])
				}
			}
		}
		if found == 0 {
			t.Errorf("found no obs.StartSpan calls in internal/%s", pkg)
		}
	}
}

// TestDocsRoutesAreReal checks that every `METHOD /path` the docs name (a
// `GET|POST /path` form names both methods) is a route the service or the
// fleet router registers, so a retired endpoint cannot linger in the docs.
func TestDocsRoutesAreReal(t *testing.T) {
	root := repoRoot(t)
	routes := map[string]bool{}
	patternRe := regexp.MustCompile(`HandleFunc\("([^"]+)"`)
	for _, f := range []string{"internal/service/server.go", "internal/fleet/router.go"} {
		src, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range patternRe.FindAllStringSubmatch(string(src), -1) {
			routes[m[1]] = true
		}
	}
	if !routes["POST /v2/compile"] {
		t.Fatal("found no POST /v2/compile route; the route scan is broken")
	}
	docRe := regexp.MustCompile("`((?:GET|POST|PUT|DELETE)(?:\\|(?:GET|POST|PUT|DELETE))*) (/[^`?\\s]*)[^`]*`")
	for _, doc := range docFiles(t) {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docRe.FindAllStringSubmatch(string(body), -1) {
			for _, method := range strings.Split(m[1], "|") {
				if route := method + " " + m[2]; !routes[route] && !routes[m[2]] {
					t.Errorf("%s: `%s` is not a registered route", filepath.Base(doc), route)
				}
			}
		}
	}
}

// TestDocsPolicyListsAreRegistered checks every pipe list that names a
// registered policy (`rl|costmodel|…`) in the docs and in main.go's usage
// text against policy.List(), so a registry change cannot leave a stale or
// missing name behind.
func TestDocsPolicyListsAreRegistered(t *testing.T) {
	want := policy.List()
	listRe := regexp.MustCompile(`\b[a-z][a-z0-9_-]*(?:\|[a-z][a-z0-9_-]*)+\b`)
	files := append(docFiles(t), filepath.Join(repoRoot(t), "cmd", "neurovec", "main.go"))
	checked := 0
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, list := range listRe.FindAllString(string(body), -1) {
			names := strings.Split(list, "|")
			if !slices.ContainsFunc(names, func(n string) bool { return slices.Contains(want, n) }) {
				continue // not a policy list (loop_id|label, text|json, ...)
			}
			checked++
			slices.Sort(names)
			if !slices.Equal(names, want) {
				t.Errorf("%s: policy list %q, want the registered %s", filepath.Base(f), list, strings.Join(want, "|"))
			}
		}
	}
	if checked == 0 {
		t.Error("found no policy list in the docs or the usage text")
	}
}

// TestDocsFigureListsAreReportNames checks every `-fig` argument of a
// `report` command in the docs, in main.go and in the usage text against the names `neurovec report`
// accepts: a list of several names must be all of them in order (a trailing
// all aside), and a single name must be one of them or all.
func TestDocsFigureListsAreReportNames(t *testing.T) {
	var want []string
	for _, f := range figures {
		want = append(want, f.name)
	}
	var usageText strings.Builder
	usage(&usageText)
	texts := map[string]string{"usage": usageText.String()}
	for _, f := range append(docFiles(t), filepath.Join(repoRoot(t), "cmd", "neurovec", "main.go")) {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		texts[filepath.Base(f)] = string(body)
	}
	// A -fig argument follows `report` on its line, or opens a parenthesis.
	figRe := regexp.MustCompile(`(?:report[^\n]*?|\()-fig ([a-z0-9]+(?:[,|][a-z0-9]+)*)`)
	lists := 0
	for name, text := range texts {
		for _, m := range figRe.FindAllStringSubmatch(text, -1) {
			names := strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == '|' })
			if len(names) == 1 {
				if names[0] != "all" && !slices.Contains(want, names[0]) {
					t.Errorf("%s: -fig %s is not a report figure (%s)", name, names[0], strings.Join(want, ","))
				}
				continue
			}
			lists++
			if names[len(names)-1] == "all" {
				names = names[:len(names)-1]
			}
			if !slices.Equal(names, want) {
				t.Errorf("%s: figure list %q, want the report figures %s", name, m[1], strings.Join(want, ","))
			}
		}
	}
	if lists < 2 {
		t.Errorf("found %d figure lists, want at least the usage text's and the README's", lists)
	}
}
