package server

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
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

// TestAPIDocCoversRequestFields diffs the POST /v1/synthesize request
// schema against the request-body block of that section in docs/API.md:
// every json name of Request must appear in the block, and the block
// must name no other field. The decoder answers an unknown field with
// 400 parse, so a documented field the server no longer takes is as
// wrong as a missing one.
func TestAPIDocCoversRequestFields(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	const heading = "### `POST /v1/synthesize`"
	_, section, ok := strings.Cut(string(b), heading)
	if !ok {
		t.Fatalf("docs/API.md has no %s section", heading)
	}
	if next := strings.Index(section, "\n### "); next >= 0 {
		section = section[:next]
	}
	block := regexp.MustCompile("(?s)```json\n(.*?)```").FindStringSubmatch(section)
	if block == nil {
		t.Fatalf("the %s section has no json request-body block", heading)
	}
	documented := make(map[string]bool)
	for _, m := range regexp.MustCompile(`(?m)^\s*"([a-z_]+)":`).FindAllStringSubmatch(block[1], -1) {
		documented[m[1]] = true
	}

	accepted := make(map[string]bool)
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if name != "" && name != "-" {
			accepted[name] = true
		}
	}
	for name := range accepted {
		if !documented[name] {
			t.Errorf("request field %q is missing from the request-body block in docs/API.md", name)
		}
	}
	for name := range documented {
		if !accepted[name] {
			t.Errorf("docs/API.md documents request field %q, which the server rejects", name)
		}
	}
}
