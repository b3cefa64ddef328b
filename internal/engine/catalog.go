package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strings"
)

// CatalogEntry is one (kind, version) of the spec catalog — the
// self-describing form GET /v2/specs serves so clients can discover kinds,
// pin versions, and validate spec documents before submitting.
type CatalogEntry struct {
	// Kind is the bare spec kind ("learn_sweep").
	Kind string `json:"kind"`
	// Version is the registered version (1 is the original wire format).
	Version int `json:"version"`
	// Wire is the name envelopes use to pin this exact version: the bare
	// kind for v1, "kind@vN" otherwise. A bare kind always resolves to the
	// latest version.
	Wire string `json:"wire"`
	// Latest marks the version a bare wire kind resolves to.
	Latest bool `json:"latest"`
	// Deprecated flags versions clients should migrate off; they still run.
	Deprecated bool `json:"deprecated,omitempty"`
	// Schema is the version's wire-document schema (draft 2020-12 subset),
	// nil when the registration carried none.
	Schema *Schema `json:"schema,omitempty"`
	// ResultSchema describes the aggregate result document GET /result
	// serves for this version; its $defs "task" entry is the per-task
	// document the result data plane streams. nil when the version's
	// RegisterResultCodec carried none (or there is no codec at all).
	ResultSchema *Schema `json:"result_schema,omitempty"`
}

// Catalog returns every registered (kind, version), sorted by kind then
// version. The slice and its schemas are shared snapshots: schemas are
// registered once at init and never mutated, so callers may render them
// freely but must not modify them.
func Catalog() []CatalogEntry {
	registry.RLock()
	defer registry.RUnlock()
	var out []CatalogEntry
	for kind, versions := range registry.kinds {
		for v, e := range versions {
			out = append(out, CatalogEntry{
				Kind:         kind,
				Version:      v,
				Wire:         VersionedKind(kind, v),
				Latest:       v == registry.latest[kind],
				Deprecated:   e.deprecated,
				Schema:       e.schema,
				ResultSchema: e.resultSchema,
			})
		}
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].Kind != out[k].Kind {
			return out[i].Kind < out[k].Kind
		}
		return out[i].Version < out[k].Version
	})
	return out
}

// CatalogFingerprint hashes the registered kinds@versions (and their
// deprecation flags) into a short stable identifier. Two processes with the
// same fingerprint accept the same wire surface — gocserve reports it from
// /healthz and -version so operators can tell replica drift (one binary
// registering a kind the other lacks) apart from transport trouble.
// Schema *content* is deliberately not hashed: the fingerprint tracks what
// the registry accepts, and a doc-comment edit should not read as drift.
// Whether a version serves a result schema IS hashed (the "+r" marker):
// a replica without one cannot stream validated partial results, which is
// exactly the capability drift the fingerprint exists to expose. The NAMES
// of a version's $defs are hashed too ("[game,gen,...]"): defs are
// addressable wire surface — clients resolve "#/$defs/gen" against the
// served catalog — so renaming or dropping one is drift, while the def
// bodies stay unhashed like all other schema content.
func CatalogFingerprint() string {
	var lines []string
	for _, e := range Catalog() {
		line := PinnedKind(e.Kind, e.Version)
		if e.Deprecated {
			line += "!"
		}
		if e.ResultSchema != nil {
			line += "+r"
		}
		if names := defNames(e.Schema, e.ResultSchema); len(names) > 0 {
			line += "[" + strings.Join(names, ",") + "]"
		}
		lines = append(lines, line)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// defNames collects the $def names the given schemas expose, sorted and
// deduplicated across them (a spec schema and its result schema may both
// carry "summary"-style defs).
func defNames(schemas ...*Schema) []string {
	seen := map[string]bool{}
	for _, s := range schemas {
		if s == nil {
			continue
		}
		for name := range s.Defs {
			seen[name] = true
		}
	}
	if len(seen) == 0 {
		return nil
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
