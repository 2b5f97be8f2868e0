package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"asyncsyn/internal/modcache"
)

// Cache exchange: the two endpoints that make a shard's solve cache
// addressable by its peers, plus the client half (peerClient) that a
// node configured with Config.Peers plugs into its cache as the
// modcache.Remote tier.
//
// The wire format is exactly the content-addressed on-disk record
// (modcache.EncodeRecord): {key} is modcache.RecordDigest of the
// solve's full cache key, so a record keeps one identity on disk, in
// memory, and on the wire. Both directions re-validate the record —
// schema, parseability, and digest/key agreement — so a corrupt or
// mismatched record is a clean miss (GET 404, PUT 400), never a wrong
// cache entry.

// handleCacheGet is GET /v1/cache/{key}: the encoded solve-cache
// record named by the digest, 404 when this node doesn't hold it.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rec, ok := s.cache.Export(r.PathValue("key"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, &Response{
			Error: "no such cache record", Class: "not_found",
		}, start)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(rec)
	s.record(http.StatusOK, start)
}

// handleCachePut is PUT /v1/cache/{key}: accept a record pushed by a
// peer (or an operator warming a fresh node). The record must decode
// and its key's digest must match the path.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBody))
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, &Response{
			Error: "request body: " + err.Error(), Class: "parse",
		}, start)
		return
	}
	digest, err := s.cache.Import(body)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, &Response{
			Error: err.Error(), Class: "parse",
		}, start)
		return
	}
	if want := r.PathValue("key"); digest != want {
		s.writeJSON(w, http.StatusBadRequest, &Response{
			Error: fmt.Sprintf("record digest %s does not match path key %s", digest, want),
			Class: "parse",
		}, start)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"key": digest}, start)
}

// normalizePeers validates peer base URLs, defaulting a bare host:port
// to http.
func normalizePeers(peers []string) ([]string, error) {
	out := make([]string, 0, len(peers))
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !strings.Contains(p, "://") {
			p = "http://" + p
		}
		u, err := url.Parse(p)
		if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return nil, fmt.Errorf("server: bad peer %q", p)
		}
		out = append(out, strings.TrimRight(p, "/"))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("server: no usable peers")
	}
	return out, nil
}

// peerClient implements modcache.Remote over the cache-exchange
// endpoints of sibling nodes: a fetch tries each peer in order and
// returns the first record that validates against the requested key.
type peerClient struct {
	peers   []string
	timeout time.Duration
	client  *http.Client
}

func newPeerClient(peers []string, timeout time.Duration) *peerClient {
	return &peerClient{
		peers:   peers,
		timeout: timeout,
		client:  &http.Client{Timeout: timeout},
	}
}

// Fetch implements modcache.Remote. Any transport error, non-200
// status, or validation failure on one peer moves on to the next; a
// nil entry with a non-nil error after the last peer reads as a miss.
func (p *peerClient) Fetch(ctx context.Context, key modcache.Key) (*modcache.Entry, error) {
	digest := modcache.RecordDigest(key)
	var lastErr error = fmt.Errorf("no peer holds %s", digest)
	for _, peer := range p.peers {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		e, err := p.fetchOne(ctx, peer, digest, key)
		if err == nil {
			return e, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (p *peerClient) fetchOne(ctx context.Context, peer, digest string, key modcache.Key) (*modcache.Entry, error) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/cache/"+digest, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	k, e, err := modcache.DecodeRecord(body)
	if err != nil {
		return nil, fmt.Errorf("peer %s: %w", peer, err)
	}
	if k != key {
		return nil, fmt.Errorf("peer %s: record key mismatch for %s", peer, digest)
	}
	return e, nil
}
