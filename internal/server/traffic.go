package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gameofcoins/internal/engine"
	"gameofcoins/internal/traffic"
)

// clientKey is the request-context key carrying the authenticated client
// identity ("" on an open server).
type clientKey struct{}

// clientFrom returns the client identity protect stored on the request
// context ("" on an open server or an unwrapped handler).
func clientFrom(r *http.Request) string {
	c, _ := r.Context().Value(clientKey{}).(string)
	return c
}

// apiKeyFrom extracts the presented API key: "Authorization: Bearer <key>"
// (what the client SDK sends) or the plainer "X-API-Key: <key>" for curl
// ergonomics. An empty return means no key was presented.
func apiKeyFrom(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if key, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// protect wraps a handler with admission control: the request's API key is
// resolved to a client identity (401 with WWW-Authenticate when a keyring is
// configured and the key is missing or unknown), and — for submission
// endpoints (limit=true) — the client's token bucket is charged, with an
// empty bucket answered 429 plus a Retry-After header. The resolved identity
// rides the request context (clientFrom) into submission attribution and
// handle ownership. On a zero-config controller every request passes as the
// anonymous client, byte-identical to the pre-traffic server.
//
// The /dist/* endpoints are deliberately not protected: the worker fleet
// sits inside the trust boundary (same operator as the server), and its
// own catalog-fingerprint check already rejects foreign workers.
func (s *Server) protect(h http.HandlerFunc, limit bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		client, ok := s.traffic.Authenticate(apiKeyFrom(r))
		if !ok {
			s.traffic.NoteUnauthorized()
			w.Header().Set("WWW-Authenticate", `Bearer realm="gocserve"`)
			writeError(w, http.StatusUnauthorized, errors.New("missing or unknown API key"))
			return
		}
		if limit {
			if retryAfter, admitted := s.traffic.Admit(client); !admitted {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs(retryAfter)))
				writeError(w, http.StatusTooManyRequests, errors.New("submission rate limit exceeded"))
				return
			}
		}
		h(w, r.WithContext(context.WithValue(r.Context(), clientKey{}, client)))
	}
}

// retryAfterSecs renders a limiter wait as Retry-After whole seconds:
// ceiling, minimum 1 — the header (and the batch per-item hint) is integral,
// and a sub-second wait rounded to 0 would read as "retry immediately".
func retryAfterSecs(retryAfter time.Duration) int {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// parsePriority validates an envelope's priority class. An unknown class is
// a schema violation against the envelope contract — mapped to 422 with a
// JSON-pointer path, exactly like a spec-document shape mismatch — so typos
// fail loudly instead of silently running at normal priority.
func parsePriority(priority string) (traffic.Class, error) {
	class, err := traffic.ParseClass(priority)
	if err != nil {
		return class, &engine.SchemaError{Doc: "envelope", Path: "/priority", Msg: err.Error()}
	}
	return class, nil
}
