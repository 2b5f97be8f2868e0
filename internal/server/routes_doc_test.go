package server

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestAPIDocCoversRoutes diffs the live route tables against
// docs/API.md: every pattern a shard or the router registers must have
// a `### `METHOD /path“ heading, and the doc must not describe routes
// that no longer exist. This keeps the operator reference from
// drifting as endpoints are added or renamed.
func TestAPIDocCoversRoutes(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md must exist and document every route: %v", err)
	}

	headingRE := regexp.MustCompile("(?m)^###+ `((?:GET|PUT|POST|DELETE|PATCH|HEAD) /[^`]*)`")
	documented := make(map[string]bool)
	for _, m := range headingRE.FindAllStringSubmatch(string(b), -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md contains no `### `METHOD /path`` endpoint headings")
	}

	registered := make(map[string]bool)
	for _, p := range Routes() {
		registered[p] = true
	}
	for _, p := range RouterRoutes() {
		registered[p] = true
	}

	for p := range registered {
		if !documented[p] {
			t.Errorf("route %q is registered but has no heading in docs/API.md", p)
		}
	}
	for p := range documented {
		if !registered[p] {
			t.Errorf("docs/API.md documents %q but no shard or router registers it", p)
		}
	}
}
