package traffic

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in     string
		want   Class
		weight float64
		err    bool
	}{
		{"", ClassNormal, 1.0, false},
		{"low", ClassLow, 0.5, false},
		{"normal", ClassNormal, 1.0, false},
		{"high", ClassHigh, 2.0, false},
		{"urgent", "", 0, true},
		{"Normal", "", 0, true}, // classes are case-sensitive wire tokens
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseClass(%q): want error, got %q", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseClass(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseClass(%q) = %q, want %q", c.in, got, c.want)
		}
		if w := got.Weight(); w != c.weight {
			t.Errorf("%q.Weight() = %v, want %v", got, w, c.weight)
		}
	}
	// Class ordering the scheduler relies on: each step is a strict
	// urgency increase.
	if !(ClassLow.Weight() < ClassNormal.Weight() && ClassNormal.Weight() < ClassHigh.Weight()) {
		t.Error("class weights are not strictly increasing low < normal < high")
	}
}

func TestParseKeyring(t *testing.T) {
	k, err := ParseKeyring(strings.NewReader(`
# analytics team
alpha:alpha-secret-1

beta:  beta-secret-2
`))
	if err != nil {
		t.Fatal(err)
	}
	if k.Len() != 2 {
		t.Fatalf("Len = %d, want 2", k.Len())
	}
	for key, want := range map[string]string{
		"alpha-secret-1": "alpha",
		"beta-secret-2":  "beta",
	} {
		client, ok := k.Lookup(key)
		if !ok || client != want {
			t.Errorf("Lookup(%q) = %q, %v; want %q, true", key, client, ok, want)
		}
	}
	for _, bad := range []string{"", "alpha-secret", "alpha-secret-11", "ALPHA-SECRET-1"} {
		if client, ok := k.Lookup(bad); ok {
			t.Errorf("Lookup(%q) unexpectedly matched %q", bad, client)
		}
	}
}

func TestParseKeyringRejectsBadEntries(t *testing.T) {
	for name, text := range map[string]string{
		"no separator":    "alphaalpha-secret-1",
		"empty client":    ":alpha-secret-1",
		"short key":       "alpha:short",
		"space in client": "al pha:alpha-secret-1",
		"dup client":      "alpha:alpha-secret-1\nalpha:other-secret-2",
		"dup key":         "alpha:alpha-secret-1\nbeta:alpha-secret-1",
		"empty file":      "# nothing\n",
	} {
		if _, err := ParseKeyring(strings.NewReader(text)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestNilKeyringLookup(t *testing.T) {
	var k *Keyring
	if _, ok := k.Lookup("anything"); ok {
		t.Error("nil keyring matched a key")
	}
	if k.Len() != 0 {
		t.Error("nil keyring is not empty")
	}
}

// fakeClock drives a Limiter deterministically.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeLimiter(rate float64, burst int) (*Limiter, *fakeClock) {
	fc := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l := NewLimiter(rate, burst)
	l.now = fc.now
	return l, fc
}

func TestLimiterBurstThenThrottle(t *testing.T) {
	l, fc := newFakeLimiter(2, 3) // 2/sec, burst 3
	for i := 0; i < 3; i++ {
		if _, ok := l.Allow("a"); !ok {
			t.Fatalf("burst submission %d denied", i)
		}
	}
	wait, ok := l.Allow("a")
	if ok {
		t.Fatal("4th immediate submission admitted past the burst")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 500ms] at 2/sec", wait)
	}
	// Waiting exactly the advertised Retry-After accrues the next token.
	fc.advance(wait)
	if _, ok := l.Allow("a"); !ok {
		t.Fatal("submission denied after waiting the advertised Retry-After")
	}
	// Clients have independent buckets.
	if _, ok := l.Allow("b"); !ok {
		t.Fatal("fresh client throttled by another client's spend")
	}
}

func TestLimiterRefillCapsAtBurst(t *testing.T) {
	l, fc := newFakeLimiter(10, 2)
	for i := 0; i < 2; i++ {
		l.Allow("a")
	}
	fc.advance(time.Hour) // long idle must not bank unbounded tokens
	for i := 0; i < 2; i++ {
		if _, ok := l.Allow("a"); !ok {
			t.Fatalf("submission %d denied after refill", i)
		}
	}
	if _, ok := l.Allow("a"); ok {
		t.Fatal("tokens accrued past the burst cap")
	}
}

// TestLimiterRetryAfterExactMath pins the denial hint to the token-bucket
// arithmetic, on the fake clock so every quantity is exact: with an empty
// bucket at rate r the wait is exactly 1/r, a partial refill shortens it by
// exactly the accrued fraction, and waiting the advertised hint admits with
// zero tokens to spare. This is the number the server ceilings into the
// Retry-After header and the per-item batch hint.
func TestLimiterRetryAfterExactMath(t *testing.T) {
	l, fc := newFakeLimiter(2, 1) // 2 tokens/sec, burst 1
	if _, ok := l.Allow("a"); !ok {
		t.Fatal("first submission denied")
	}
	// Bucket is now exactly empty: need = (1-0)/2 sec = 500ms.
	wait, ok := l.Allow("a")
	if ok || wait != 500*time.Millisecond {
		t.Fatalf("empty-bucket hint = %v, %v; want exactly 500ms denial", wait, ok)
	}
	// A quarter second accrues exactly half a token: need = (1-0.5)/2.
	fc.advance(250 * time.Millisecond)
	wait, ok = l.Allow("a")
	if ok || wait != 250*time.Millisecond {
		t.Fatalf("half-token hint = %v, %v; want exactly 250ms denial", wait, ok)
	}
	// Waiting out the hint lands on exactly one token — admitted, and the
	// spend leaves exactly zero, so the next hint is the full 500ms again.
	fc.advance(250 * time.Millisecond)
	if _, ok := l.Allow("a"); !ok {
		t.Fatal("submission denied after waiting the advertised hint")
	}
	wait, ok = l.Allow("a")
	if ok || wait != 500*time.Millisecond {
		t.Fatalf("post-spend hint = %v, %v; want exactly 500ms denial", wait, ok)
	}
}

// TestLimiterEvictionAtCap drives the bucket map to maxBuckets on the fake
// clock: the next unseen client recycles the stalest bucket, a recycled
// client restarts with a full bucket (more permissive, never a lockout), and
// untouched clients keep their spent state.
func TestLimiterEvictionAtCap(t *testing.T) {
	l, fc := newFakeLimiter(0.001, 1) // refill slow enough to be negligible
	name := func(i int) string { return fmt.Sprintf("c%04d", i) }
	for i := 0; i < maxBuckets; i++ {
		if _, ok := l.Allow(name(i)); !ok {
			t.Fatalf("client %d denied its first submission", i)
		}
		fc.advance(time.Millisecond) // distinct last-touched times
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("bucket map holds %d entries, want %d", len(l.buckets), maxBuckets)
	}
	// A newcomer past the cap evicts the stalest (client 0) and is admitted
	// from a fresh full bucket.
	if _, ok := l.Allow("newcomer"); !ok {
		t.Fatal("newcomer denied at the cap")
	}
	if len(l.buckets) != maxBuckets {
		t.Fatalf("bucket map grew past the cap: %d", len(l.buckets))
	}
	if _, stale := l.buckets[name(0)]; stale {
		t.Fatal("stalest bucket survived eviction")
	}
	// The evicted client restarts full — admitted again, not locked out.
	if _, ok := l.Allow(name(0)); !ok {
		t.Fatal("recycled client denied; eviction must never lock out")
	}
	// An untouched client still owns its (empty) bucket.
	if _, ok := l.Allow(name(7)); ok {
		t.Fatal("unevicted client's spent bucket refilled by eviction churn")
	}
}

// TestLimiterEvictionTieBreaksByName: equal last-touched times recycle the
// lexicographically smaller client, so eviction is deterministic.
func TestLimiterEvictionTieBreaksByName(t *testing.T) {
	l, _ := newFakeLimiter(1, 1)
	l.Allow("b")
	l.Allow("a") // same fake-clock instant
	l.mu.Lock()
	l.evictStalestLocked()
	l.mu.Unlock()
	if _, ok := l.buckets["a"]; ok {
		t.Fatal("tie eviction kept the lexicographically smaller client")
	}
	if _, ok := l.buckets["b"]; !ok {
		t.Fatal("tie eviction recycled the wrong bucket")
	}
}

func TestLimiterDisabled(t *testing.T) {
	l, _ := newFakeLimiter(0, 1)
	for i := 0; i < 100; i++ {
		if _, ok := l.Allow("a"); !ok {
			t.Fatal("disabled limiter denied a submission")
		}
	}
}

func TestControllerOpenVsEnforced(t *testing.T) {
	open := New(Config{})
	if open.Enforced() {
		t.Fatal("zero-config controller is enforced")
	}
	if client, ok := open.Authenticate("whatever"); !ok || client != "" {
		t.Fatalf("open Authenticate = %q, %v; want anonymous pass", client, ok)
	}

	k, err := ParseKeyring(strings.NewReader("alpha:alpha-secret-1"))
	if err != nil {
		t.Fatal(err)
	}
	gated := New(Config{Keyring: k, Rate: 100, Burst: 2, MaxShare: 0.5})
	if !gated.Enforced() {
		t.Fatal("keyed controller not enforced")
	}
	if _, ok := gated.Authenticate(""); ok {
		t.Fatal("missing key authenticated")
	}
	if client, ok := gated.Authenticate("alpha-secret-1"); !ok || client != "alpha" {
		t.Fatalf("Authenticate = %q, %v", client, ok)
	}
	gated.NoteUnauthorized()
	if _, ok := gated.Admit("alpha"); !ok {
		t.Fatal("first submission throttled")
	}
	st := gated.Stats()
	if !st.Enforced || st.Clients != 1 || st.Unauthorized != 1 || st.MaxShare != 0.5 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.PerClient["alpha"].Admitted != 1 {
		t.Fatalf("per-client stats = %+v", st.PerClient)
	}
}
