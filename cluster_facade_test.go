package asyncsyn_test

// Facade contract for the sharded cluster: distribution is a pure
// deployment layer. A circuit synthesized through a router over
// peer-connected shards reports the same digest as the direct library
// call — the same invariant TestCacheBitIdentical pins for caching.
// (External test package: internal/server imports asyncsyn, so an
// in-package test would be an import cycle.)

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"asyncsyn"
	"asyncsyn/internal/bench"
	"asyncsyn/internal/server"
)

func TestClusterMatchesLibrary(t *testing.T) {
	// Two shards; the second pulls cache records from the first.
	var urls []string
	for i := 0; i < 2; i++ {
		cfg := server.Config{MaxInFlight: 2}
		if i > 0 {
			cfg.Peers = urls[:1]
		}
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	rt, err := server.NewRouter(server.RouterConfig{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	for _, name := range []string{"vbe4a", "nak-pa", "fifo"} {
		src, err := bench.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		stg, err := asyncsyn.ParseSTGString(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := asyncsyn.Synthesize(stg, asyncsyn.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}

		resp, err := http.Post(front.URL+"/v1/synthesize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"bench":%q}`, name)))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Digest string `json:"digest"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: cluster status %d", name, resp.StatusCode)
		}
		if out.Digest != c.Digest() {
			t.Errorf("%s: cluster digest %s != library %s", name, out.Digest, c.Digest())
		}
	}
}
