// Package traffic is gocserve's admission-control layer: API-key
// authentication, per-client submission rate limits, and preemption-free
// priority classes. It sits between the HTTP serving layer and the engine —
// the server authenticates and rate-limits requests through a Controller,
// and the resolved client identity and priority weight ride into the
// engine's fair-share dispatcher, which enforces the per-client in-flight
// cost quota (engine.SetClientShares).
//
// Admission control is deliberately outside the determinism boundary:
// everything here changes only *whether* and *when* a job is admitted and
// scheduled, never what it computes. A job admitted under any key, quota, or
// priority produces bytes identical to the same spec and seed run open and
// alone — the property the traffic smoke test gates on.
package traffic

import (
	"bufio"
	"crypto/sha256"
	"crypto/subtle"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class is a preemption-free priority class. Classes translate to urgency
// weights in the engine's fair-share dispatcher: a high job's in-flight
// count is discounted and a low job's inflated when the scheduler compares
// loads, so higher classes drain faster under contention without ever
// preempting running tasks — and without touching results, cache keys, or
// wire compatibility (the zero value on the wire means ClassNormal).
type Class string

// The three priority classes. ClassNormal is the default: an envelope with
// no "priority" field — every v1 submission and every pre-existing v2
// client — runs at exactly the weight all jobs had before classes existed.
const (
	ClassLow    Class = "low"
	ClassNormal Class = "normal"
	ClassHigh   Class = "high"
)

// Class weights. One class step is a 2× urgency ratio — wide enough that
// priorities visibly shape throughput under contention, narrow enough that
// a busy low tenant still progresses at a useful rate on a small pool
// (weights only set ratios; absolute scale is meaningless).
const (
	weightLow    = 0.5
	weightNormal = 1.0
	weightHigh   = 2.0
)

// ParseClass validates a wire priority string. The empty string is
// ClassNormal (the field is optional on the envelope); anything other than
// the three class names is an error the server maps to a schema violation.
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "":
		return ClassNormal, nil
	case ClassLow, ClassNormal, ClassHigh:
		return Class(s), nil
	}
	return "", fmt.Errorf("unknown priority %q (want %q, %q, or %q)", s, ClassLow, ClassNormal, ClassHigh)
}

// Weight returns the class's urgency weight for the fair-share dispatcher.
// Unknown classes weigh as normal, so a zero Class is always safe.
func (c Class) Weight() float64 {
	switch c {
	case ClassLow:
		return weightLow
	case ClassHigh:
		return weightHigh
	}
	return weightNormal
}

// Keyring maps API keys to client identities. Keys are stored as SHA-256
// digests and looked up with a constant-time scan over every entry, so
// neither key content nor which entry matched leaks through timing. The
// zero value / nil Keyring authenticates nobody; a nil *Keyring inside a
// Config means the server is open (no auth at all).
type Keyring struct {
	entries []keyEntry
}

type keyEntry struct {
	client string
	digest [sha256.Size]byte
}

// ParseKeyring reads a keyring: one "client-id:key" entry per line, with
// blank lines and #-comments ignored. Client IDs may not repeat (one key per
// client keeps quota attribution unambiguous), may not contain whitespace or
// ':', and keys must be at least 8 characters.
func ParseKeyring(r io.Reader) (*Keyring, error) {
	k := &Keyring{}
	seenClient := map[string]bool{}
	seenKey := map[[sha256.Size]byte]bool{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		client, key, ok := strings.Cut(text, ":")
		if !ok {
			return nil, fmt.Errorf("keyring line %d: want client:key", line)
		}
		client = strings.TrimSpace(client)
		key = strings.TrimSpace(key)
		switch {
		case client == "":
			return nil, fmt.Errorf("keyring line %d: empty client id", line)
		case strings.ContainsAny(client, " \t:"):
			return nil, fmt.Errorf("keyring line %d: client id %q contains whitespace or ':'", line, client)
		case len(key) < 8:
			return nil, fmt.Errorf("keyring line %d: key for %q is shorter than 8 characters", line, client)
		case seenClient[client]:
			return nil, fmt.Errorf("keyring line %d: duplicate client %q", line, client)
		}
		d := sha256.Sum256([]byte(key))
		if seenKey[d] {
			return nil, fmt.Errorf("keyring line %d: key for %q duplicates an earlier client's key", line, client)
		}
		seenClient[client] = true
		seenKey[d] = true
		k.entries = append(k.entries, keyEntry{client: client, digest: d})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("keyring: %w", err)
	}
	if len(k.entries) == 0 {
		return nil, fmt.Errorf("keyring holds no entries")
	}
	return k, nil
}

// LoadKeyring reads a keyring file (the gocserve -keys flag).
func LoadKeyring(path string) (*Keyring, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	k, err := ParseKeyring(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return k, nil
}

// Lookup resolves a presented key to its client identity. The scan visits
// every entry and compares fixed-size digests regardless of where (or
// whether) a match occurs, so lookup time is independent of both the key
// material and the matching entry's position.
func (k *Keyring) Lookup(key string) (client string, ok bool) {
	if k == nil || len(k.entries) == 0 {
		return "", false
	}
	d := sha256.Sum256([]byte(key))
	match := -1
	for i := range k.entries {
		if subtle.ConstantTimeCompare(d[:], k.entries[i].digest[:]) == 1 {
			match = i
		}
	}
	if match < 0 {
		return "", false
	}
	return k.entries[match].client, true
}

// Len returns the number of keyed clients.
func (k *Keyring) Len() int {
	if k == nil {
		return 0
	}
	return len(k.entries)
}

// Clients lists the keyed client identities, sorted.
func (k *Keyring) Clients() []string {
	if k == nil {
		return nil
	}
	out := make([]string, 0, len(k.entries))
	for _, e := range k.entries {
		out = append(out, e.client)
	}
	sort.Strings(out)
	return out
}

// maxBuckets bounds the limiter's per-client state. Keyed clients come from
// the (bounded) keyring, so the cap only matters for pathological synthetic
// identities; past it the stalest bucket is recycled.
const maxBuckets = 4096

// Limiter is a per-client token bucket over wall-clock time: each client
// accrues `rate` tokens per second up to `burst`, and each admitted
// submission spends one. A denied submission reports how long until the next
// token — the Retry-After the server sends with its 429.
type Limiter struct {
	rate  float64 // tokens per second; <= 0 disables limiting
	burst float64 // bucket capacity (minimum 1)

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
	now     func() time.Time   // injectable clock for tests; set before first Allow
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter returns a limiter admitting `rate` submissions per second per
// client with bursts up to `burst`. rate <= 0 disables limiting entirely;
// burst < 1 is raised to 1 (a bucket that can never hold a whole token
// would deny everything).
func NewLimiter(rate float64, burst int) *Limiter {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return &Limiter{rate: rate, burst: b, buckets: map[string]*bucket{}, now: time.Now}
}

// Allow spends one token from client's bucket. When the bucket is empty it
// reports ok=false and the wait until one token will have accrued.
func (l *Limiter) Allow(client string) (retryAfter time.Duration, ok bool) {
	if l == nil || l.rate <= 0 {
		return 0, true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[client]
	if b == nil {
		if len(l.buckets) >= maxBuckets {
			l.evictStalestLocked()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / l.rate
	return time.Duration(need * float64(time.Second)), false
}

// evictStalestLocked recycles the bucket that was touched longest ago. A
// recycled client restarts with a full bucket — strictly more permissive,
// never a lockout. Callers hold l.mu.
func (l *Limiter) evictStalestLocked() {
	var stalest string
	var at time.Time
	first := true
	for c, b := range l.buckets {
		if first || b.last.Before(at) || (b.last.Equal(at) && c < stalest) {
			stalest, at, first = c, b.last, false
		}
	}
	delete(l.buckets, stalest)
}

// Config assembles one Controller.
type Config struct {
	// Keyring authenticates clients. nil runs the server open: every
	// request is the anonymous client "" and nothing 401s.
	Keyring *Keyring
	// Rate is the per-client submission rate limit in submissions/second
	// (token-bucket; <= 0 disables rate limiting).
	Rate float64
	// Burst is the token-bucket depth (how many submissions a quiet client
	// may fire back-to-back). Values < 1 mean 1.
	Burst int
	// MaxShare caps each client's share of the engine's aggregate in-flight
	// cost, in (0, 1]; 0 disables the quota. The cap is work-conserving:
	// it binds only while another client has work waiting, so a lone client
	// still uses the whole pool. Enforced inside the engine's fair-share
	// take path — push it there with engine.SetClientShares(MaxShare, nil).
	MaxShare float64
}

// ClientStats counts one client's admission outcomes.
type ClientStats struct {
	// Admitted counts submissions that passed the rate limiter.
	Admitted uint64 `json:"admitted"`
	// Throttled counts submissions denied with 429.
	Throttled uint64 `json:"throttled,omitempty"`
}

// Stats is a point-in-time admission snapshot, served from /healthz.
type Stats struct {
	// Enforced reports whether a keyring gates requests (false = open server).
	Enforced bool `json:"enforced"`
	// Clients is the keyring size (0 when open).
	Clients int `json:"clients,omitempty"`
	// RatePerSec / Burst / MaxShare echo the active policy.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Burst      int     `json:"burst,omitempty"`
	MaxShare   float64 `json:"max_share,omitempty"`
	// Unauthorized counts requests rejected 401.
	Unauthorized uint64 `json:"unauthorized,omitempty"`
	// PerClient maps client identity to its admission counters. The
	// anonymous client of an open server appears as "".
	PerClient map[string]ClientStats `json:"per_client,omitempty"`
}

// Controller is the server's admission-control state: the keyring, the
// rate limiter, and the counters /healthz reports. Safe for concurrent use.
type Controller struct {
	cfg     Config
	limiter *Limiter

	mu           sync.Mutex
	perClient    map[string]*ClientStats // guarded by mu
	unauthorized uint64                  // guarded by mu
}

// New assembles a Controller from cfg. The zero Config is a fully open,
// unlimited controller — exactly the pre-traffic server behavior.
func New(cfg Config) *Controller {
	return &Controller{
		cfg:       cfg,
		limiter:   NewLimiter(cfg.Rate, cfg.Burst),
		perClient: map[string]*ClientStats{},
	}
}

// Enforced reports whether requests must present a known API key.
func (c *Controller) Enforced() bool { return c.cfg.Keyring.Len() > 0 }

// MaxShare returns the configured per-client in-flight cost share cap
// (0 = unlimited) — the value to push into engine.SetClientShares.
func (c *Controller) MaxShare() float64 { return c.cfg.MaxShare }

// Authenticate resolves a presented API key to a client identity. On an
// open controller (no keyring) every request — keyed or not — is the
// anonymous client "". With a keyring, a missing or unknown key is rejected.
func (c *Controller) Authenticate(key string) (client string, ok bool) {
	if !c.Enforced() {
		return "", true
	}
	return c.cfg.Keyring.Lookup(key)
}

// NoteUnauthorized counts a request rejected for a missing or unknown key.
func (c *Controller) NoteUnauthorized() {
	c.mu.Lock()
	c.unauthorized++
	c.mu.Unlock()
}

// Admit runs one submission through client's token bucket, recording the
// outcome. Denials report the Retry-After the 429 should carry.
func (c *Controller) Admit(client string) (retryAfter time.Duration, ok bool) {
	retryAfter, ok = c.limiter.Allow(client)
	c.mu.Lock()
	st := c.perClient[client]
	if st == nil {
		st = &ClientStats{}
		c.perClient[client] = st
	}
	if ok {
		st.Admitted++
	} else {
		st.Throttled++
	}
	c.mu.Unlock()
	return retryAfter, ok
}

// Stats snapshots the controller.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Enforced:     c.Enforced(),
		Clients:      c.cfg.Keyring.Len(),
		RatePerSec:   c.cfg.Rate,
		Burst:        c.cfg.Burst,
		MaxShare:     c.cfg.MaxShare,
		Unauthorized: c.unauthorized,
	}
	if len(c.perClient) > 0 {
		s.PerClient = make(map[string]ClientStats, len(c.perClient))
		for client, st := range c.perClient {
			s.PerClient[client] = *st
		}
	}
	return s
}
