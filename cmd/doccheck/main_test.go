package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSlugify(t *testing.T) {
	cases := map[string]string{
		"Running a cluster":                 "running-a-cluster",
		"3.14 Sharded cluster: ring, peers": "314-sharded-cluster-ring-peers",
		"`POST /v1/batch`":                  "post-v1batch",
		"What **it** does":                  "what-it-does",
	}
	for in, want := range cases {
		if got := slugify(in); got != want {
			t.Errorf("slugify(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "other.md", "# Other Doc\n\n## Real Section\n")
	write(t, dir, "docs/deep.md", "# Deep\n")
	doc := write(t, dir, "README.md", strings.Join([]string{
		"# Title",
		"## Repeat",
		"## Repeat",
		"ok: [a](other.md) [b](other.md#real-section) [c](docs/deep.md)",
		"ok: [d](#title) [e](#repeat-1) [ext](https://example.com/x#y)",
		"bad: [f](missing.md)",
		"bad: [g](other.md#no-such)",
		"bad: [h](#absent)",
		"```",
		"[not-a-link](nowhere.md)",
		"# not a heading",
		"```",
	}, "\n"))

	problems, err := checkFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 3 {
		t.Fatalf("got %d problems, want 3:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	for i, frag := range []string{"missing.md", "no-such", "absent"} {
		if !strings.Contains(problems[i], frag) {
			t.Errorf("problem %d = %q, want mention of %q", i, problems[i], frag)
		}
	}
}

// TestRepoDocsResolve runs the checker over the real operator docs —
// the same set the CI docs job gates on — so a broken link fails
// locally too.
func TestRepoDocsResolve(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md", ".claude/skills/verify/SKILL.md"} {
		path := filepath.Join("..", "..", doc)
		problems, err := checkFile(path)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, p := range problems {
			t.Errorf("%s", p)
		}
	}
}
