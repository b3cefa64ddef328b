package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"gameofcoins/internal/core"
)

// The spec registry makes the job API self-describing: a job arrives on the
// wire as a JobEnvelope — a kind, a seed, and an opaque spec document — and
// the registry alone turns the document into a typed Spec. Serving layers
// (gocserve's /v2, gocworker, the CLIs) never switch on kinds;
// adding a job type is one RegisterSpec call next to the spec's definition.
//
// Since the catalog redesign, kinds are versioned: a registration is a
// (kind, version, decoder, schema) quadruple, the wire accepts "kind" (the
// latest registered version) or "kind@vN" (pinned), and breaking changes to
// a spec's JSON shape ship as a new version coexisting with the old one
// instead of silently corrupting cache keys and persisted records. Version 1
// is the pre-versioning wire format: its cache keys hash the bare kind, so
// every envelope and job record written before versioning existed resolves
// and caches byte-identically (the golden corpus under testdata/ enforces
// this).

// JobEnvelope is the self-describing wire form of a job: the registered spec
// kind — bare ("learn_sweep", the latest version) or version-pinned
// ("learn_sweep@v2") — the seed rooting the job's deterministic randomness,
// and the spec document itself, decoded by the registry entry it resolves to.
type JobEnvelope struct {
	Kind string          `json:"kind"`
	Seed uint64          `json:"seed"`
	Spec json.RawMessage `json:"spec,omitempty"`
	// Priority is the optional admission-control class ("low", "normal",
	// "high"; empty means "normal"). It biases when the job's tasks are
	// scheduled, never what they compute, so it is deliberately excluded
	// from cache keys: a high-priority rerun of a cached spec is a cache
	// hit, not a recomputation.
	Priority string `json:"priority,omitempty"`
}

// DecodeFunc turns a raw spec document into a typed Spec. It should reject
// malformed documents but leave semantic validation to the spec's Validate.
type DecodeFunc func(json.RawMessage) (Spec, error)

// specEntry is one registered (kind, version).
type specEntry struct {
	decode       DecodeFunc
	schema       *Schema
	resultSchema *Schema
}

var registry = struct {
	sync.RWMutex
	// kinds maps kind → version → entry; latest tracks the highest
	// registered version per kind (what a bare wire kind resolves to).
	kinds  map[string]map[int]*specEntry
	latest map[string]int
}{kinds: map[string]map[int]*specEntry{}, latest: map[string]int{}}

// RegisterSpec registers a decoder (and its optional wire schema) for the
// given spec kind and version. Version 1 is the kind's original wire format;
// later versions coexist with it — clients pin one with "kind@vN", and a
// bare kind resolves to the latest. It panics on an empty or '@'-bearing
// kind, a version below 1, a nil decoder, or a duplicate (kind, version) —
// all programmer errors at package init time, not runtime conditions.
func RegisterSpec(kind string, version int, decode DecodeFunc, schema *Schema) {
	if kind == "" {
		panic("engine: RegisterSpec with empty kind")
	}
	if strings.Contains(kind, "@") {
		panic("engine: RegisterSpec kind " + kind + " contains '@' (reserved for version suffixes)")
	}
	if version < 1 {
		panic(fmt.Sprintf("engine: RegisterSpec %s with version %d (must be >= 1)", kind, version))
	}
	if decode == nil {
		panic("engine: RegisterSpec with nil decoder for " + kind)
	}
	registry.Lock()
	defer registry.Unlock()
	versions := registry.kinds[kind]
	if versions == nil {
		versions = map[int]*specEntry{}
		registry.kinds[kind] = versions
	}
	if _, dup := versions[version]; dup {
		panic(fmt.Sprintf("engine: RegisterSpec duplicate kind %s version %d", kind, version))
	}
	versions[version] = &specEntry{decode: decode, schema: schema}
	if version > registry.latest[kind] {
		registry.latest[kind] = version
	}
}

// ParseKindVersion splits a wire kind into its bare kind and pinned version:
// "learn_sweep" → ("learn_sweep", 0) where 0 means "latest registered", and
// "learn_sweep@v2" → ("learn_sweep", 2). It does not consult the registry.
func ParseKindVersion(wire string) (kind string, version int, err error) {
	kind, suffix, pinned := strings.Cut(wire, "@")
	if !pinned {
		return wire, 0, nil
	}
	digits, ok := strings.CutPrefix(suffix, "v")
	// Only canonical plain-digit suffixes: Atoi alone would also admit
	// "@v+2" and "@v01", giving one version several wire spellings.
	for _, r := range digits {
		if r < '0' || r > '9' {
			ok = false
		}
	}
	n, perr := strconv.Atoi(digits)
	if kind == "" || !ok || perr != nil || n < 1 || digits[0] == '0' {
		return "", 0, fmt.Errorf("engine: malformed versioned kind %q (want kind or kind@vN)", wire)
	}
	return kind, n, nil
}

// VersionedKind renders the wire name of (kind, version): the bare kind for
// version 1 — the pre-versioning format, so v1 wire names, cache keys, and
// persisted records are byte-identical to everything written before versions
// existed — and "kind@vN" for later versions.
func VersionedKind(kind string, version int) string {
	if version <= 1 {
		return kind
	}
	return PinnedKind(kind, version)
}

// PinnedKind is the always-pinned wire form "kind@vN" of (kind, version).
// Unlike VersionedKind, which keeps v1 bare for wire compatibility, it pins
// v1 too: a bare kind resolves to the *latest* version, so wherever a
// version is already decided — a job's remote identity on a worker, a
// stored record's recompute — a bare v1 would silently run under v2
// semantics the day a v2 registers. Legacy records with version 0 ran v1
// semantics, so versions below 1 pin v1.
func PinnedKind(kind string, version int) string {
	return fmt.Sprintf("%s@v%d", kind, max(version, 1))
}

// resolvedEntry is what ResolveEnvelope needs of one registry entry, copied
// out while the registry lock is held so callers read it lock-free.
type resolvedEntry struct {
	kind    string
	version int
	decode  DecodeFunc
	schema  *Schema
}

// lookupSpec resolves a wire kind to a snapshot of its registry entry.
// Callers must not hold the registry lock.
func lookupSpec(wire string) (resolvedEntry, error) {
	kind, version, err := ParseKindVersion(wire)
	if err != nil {
		return resolvedEntry{}, err
	}
	registry.RLock()
	defer registry.RUnlock()
	versions := registry.kinds[kind]
	if versions == nil {
		return resolvedEntry{}, fmt.Errorf("engine: unknown spec kind %q (registered: %v)", kind, specKindsLocked())
	}
	if version == 0 {
		version = registry.latest[kind]
	}
	e := versions[version]
	if e == nil {
		return resolvedEntry{}, fmt.Errorf("engine: unknown version %d of spec kind %q (registered: %v)", version, kind, specVersionsLocked(kind))
	}
	return resolvedEntry{kind: kind, version: version, decode: e.decode, schema: e.schema}, nil
}

// ResolvedSpec is a decoded spec bound to the registry entry that produced
// it: the bare kind and the resolved version (a bare wire kind resolves to
// the latest registered one).
type ResolvedSpec struct {
	Spec    Spec
	Kind    string
	Version int
}

// WireKind returns the canonical wire name of the resolved version (the bare
// kind for v1, "kind@vN" otherwise) — what cache keys and job records carry.
func (r ResolvedSpec) WireKind() string { return VersionedKind(r.Kind, r.Version) }

// ResolveEnvelope resolves env through the registry: the wire kind is parsed
// and version-resolved, the spec document is validated against the version's
// schema (a mismatch returns a *SchemaError, which serving layers surface as
// a 422 with the error's JSON-pointer path), and the document is decoded. It
// is the one decode path: where the version is already decided — a stored
// record's recompute, a worker's lease — the envelope carries
// PinnedKind(kind, version). An empty document decodes the spec's zero
// value (validation then rejects it if the kind has required fields).
func ResolveEnvelope(env JobEnvelope) (ResolvedSpec, error) {
	e, err := lookupSpec(env.Kind)
	if err != nil {
		return ResolvedSpec{}, err
	}
	wire := VersionedKind(e.kind, e.version)
	if err := e.schema.Validate(env.Spec); err != nil {
		return ResolvedSpec{}, fmt.Errorf("engine: %s spec: %w", wire, err)
	}
	spec, err := e.decode(env.Spec)
	if err != nil {
		return ResolvedSpec{}, fmt.Errorf("engine: decode %s spec: %w", wire, err)
	}
	if spec.Kind() != e.kind {
		return ResolvedSpec{}, fmt.Errorf("engine: registry entry %q decoded a %q spec", e.kind, spec.Kind())
	}
	return ResolvedSpec{Spec: spec, Kind: e.kind, Version: e.version}, nil
}

// RunWire executes spec on e exactly as a serving layer would run the
// equivalent envelope: canonical-encode, resolve through the registry
// (version resolution, schema validation, the registered decoder), then
// run. The CLIs use it for their local sweeps, so what they execute can
// never drift from what gocserve accepts for the same spec.
func RunWire(ctx context.Context, e *Engine, spec Spec, seed uint64) (any, error) {
	raw, err := CanonicalSpecJSON(spec)
	if err != nil {
		return nil, err
	}
	rs, err := ResolveEnvelope(JobEnvelope{Kind: spec.Kind(), Seed: seed, Spec: raw})
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, rs.Spec, seed, nil)
}

// RegisterResultSchema registers the result schema of the given kind and
// version: the aggregate document GET /result serves. By convention its
// $defs carry "task" (the per-task document the result data plane streams)
// and "summary" (the stats block) — the client SDK validates streamed task
// documents against Defs["task"] when present, and rehydration checks a
// stored result against the whole schema (ValidateResult). Registering one
// is optional: a version without a result schema streams unchecked and
// restores any stored result. The (kind, version) must already be
// registered via RegisterSpec; like it, a duplicate or a nil schema panics.
func RegisterResultSchema(kind string, version int, schema *Schema) {
	if schema == nil {
		panic("engine: RegisterResultSchema with nil schema for " + kind)
	}
	registry.Lock()
	defer registry.Unlock()
	e := registry.kinds[kind][version]
	if e == nil {
		panic(fmt.Sprintf("engine: RegisterResultSchema for unregistered kind %s version %d", kind, version))
	}
	if e.resultSchema != nil {
		panic(fmt.Sprintf("engine: RegisterResultSchema duplicate kind %s version %d", kind, version))
	}
	e.resultSchema = schema
}

// ValidateResult checks a stored result document of the given kind and
// version (0 counts as 1, the pre-versioning format) against the version's
// result schema: rehydration serves a done record's bytes as they are only
// once they pass, and recomputes the job otherwise. A version without a
// result schema (or a kind no longer registered) accepts any document. An
// empty document fails a schema: it is no result at all.
func ValidateResult(kind string, version int, raw json.RawMessage) error {
	version = max(version, 1)
	registry.RLock()
	var schema *Schema
	if e := registry.kinds[kind][version]; e != nil {
		schema = e.resultSchema
	}
	registry.RUnlock()
	if schema == nil {
		return nil
	}
	if err := schema.check(schema, raw); err != nil {
		err.Doc = "result document"
		return fmt.Errorf("engine: %s result: %w", VersionedKind(kind, version), err)
	}
	return nil
}

// SpecKinds returns the registered bare spec kinds, sorted.
func SpecKinds() []string {
	registry.RLock()
	defer registry.RUnlock()
	return specKindsLocked()
}

func specKindsLocked() []string {
	kinds := make([]string, 0, len(registry.kinds))
	for k := range registry.kinds {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// specVersionsLocked lists a kind's registered versions ascending, for
// error messages. Callers hold the registry lock.
func specVersionsLocked(kind string) []int {
	versions := make([]int, 0, len(registry.kinds[kind]))
	for v := range registry.kinds[kind] {
		versions = append(versions, v)
	}
	sort.Ints(versions)
	return versions
}

// DecodeJSON adapts a JSON-encodable spec struct to a DecodeFunc. Unknown
// fields are rejected: a self-describing envelope that silently dropped a
// misspelled parameter would compute the wrong experiment without a word.
func DecodeJSON[S Spec]() DecodeFunc {
	return func(raw json.RawMessage) (Spec, error) {
		var s S
		if len(raw) > 0 {
			dec := json.NewDecoder(bytes.NewReader(raw))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&s); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
}

// The four built-in sweeps register themselves like any third-party spec
// would — version 1 is their original (pre-versioning) wire format, and the
// serving layers learn about them only through the registry. Their schemas
// live in specs_schema.go, next to nothing else: hand-written shape
// descriptions the decoder-agreement tests keep honest.
func init() {
	RegisterSpec(LearnSweep{}.Kind(), 1, DecodeJSON[LearnSweep](), learnSweepSchema())
	RegisterSpec(DesignSweep{}.Kind(), 1, DecodeJSON[DesignSweep](), designSweepSchema())
	RegisterSpec(ReplaySweep{}.Kind(), 1, DecodeJSON[ReplaySweep](), replaySweepSchema())
	RegisterSpec(EquilibriumSweep{}.Kind(), 1, DecodeJSON[EquilibriumSweep](), equilibriumSweepSchema())
	RegisterResultSchema(LearnSweep{}.Kind(), 1, learnSweepResultSchema())
	RegisterResultSchema(DesignSweep{}.Kind(), 1, designSweepResultSchema())
	RegisterResultSchema(ReplaySweep{}.Kind(), 1, replaySweepResultSchema())
	RegisterResultSchema(EquilibriumSweep{}.Kind(), 1, equilibriumSweepResultSchema())
}

// GameResolver resolves a registered-game reference (e.g. gocserve's
// content-addressed game IDs) to the game itself.
type GameResolver func(id string) (*core.Game, error)

// GameRefSpec is implemented by specs that may reference games indirectly
// (by registry ID) and need a resolver to produce a runnable spec. The
// serving layer calls ResolveGames once at submission; the returned spec
// must be self-contained — its canonical encoding is what cache keys hash,
// so two references to the same game must resolve to identical specs.
type GameRefSpec interface {
	Spec
	ResolveGames(resolve GameResolver) (Spec, error)
}

// ResolveSpec resolves spec's game references through resolve if it has any.
// Specs without references pass through untouched.
func ResolveSpec(spec Spec, resolve GameResolver) (Spec, error) {
	if gr, ok := spec.(GameRefSpec); ok {
		return gr.ResolveGames(resolve)
	}
	return spec, nil
}

// CanonicalSpecJSON is the canonical wire encoding of a spec: the struct's
// own JSON marshalling, which has a fixed field order (and, for embedded
// games, core.Game's sorted-miner canonical form). Cache keys hash it, so a
// spec whose encoding is not deterministic would split its own cache line.
func CanonicalSpecJSON(spec Spec) (json.RawMessage, error) {
	b, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("engine: encode %s spec: %w", spec.Kind(), err)
	}
	return b, nil
}

// CacheKeyJSON derives the result-cache key of a job from its versioned
// wire kind (ResolvedSpec.WireKind), its canonical spec encoding
// (CanonicalSpecJSON) and its seed — the exact inputs the engine runs on.
// Every deterministic job is a pure function of the three, so serving layers
// may answer an identical submission from cache. Hashing the canonical
// encoding means wire fields a job type ignores can never split or alias
// cache entries. Hashing the wire kind — the bare kind for v1, so every
// pre-versioning cache key is unchanged — keeps distinct versions of one
// kind on distinct cache lines even when a document decodes under both.
func CacheKeyJSON(wireKind string, canonical json.RawMessage, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|", wireKind, seed)
	h.Write(canonical)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
