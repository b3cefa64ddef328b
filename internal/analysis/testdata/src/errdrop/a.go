// Package errdrop is the golden suite for the errdrop analyzer: discarded
// errors from marshals, writes, and store operations are flagged — both the
// bare-call and the blank-assignment form — while propagated or handled
// errors and deferred calls are not.
package errdrop

import (
	"encoding/json"
	"os"

	"gameofcoins/internal/store"
)

func bareMarshal(v any) {
	json.Marshal(v) // want `error from encoding/json.Marshal discarded by bare call`
}

func blankMarshal(v any) []byte {
	b, _ := json.Marshal(v) // want `error from encoding/json.Marshal assigned to _`
	return b
}

func propagated(v any) ([]byte, error) {
	return json.Marshal(v)
}

func handled(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func bareRemove(path string) {
	os.Remove(path) // want `error from os.Remove discarded by bare call`
}

func allowedCleanup(path string) {
	//goclint:allow errdrop -- golden: best-effort cleanup on an error path
	os.Remove(path)
}

func storeBlank(s store.Store, rec store.JobRecord) {
	_ = s.PutJob(rec) // want `error from store.PutJob assigned to _`
}

func storeBare(s store.Store, handle string) {
	s.DeleteHandle(handle) // want `error from store.DeleteHandle discarded by bare call`
}

func storePropagated(s store.Store, rec store.JobRecord) error {
	return s.PutJob(rec)
}

func storeRangeBlank(s store.Store, jobID string, docs []json.RawMessage) {
	_ = s.PutJobRange(jobID, 0, docs) // want `error from store.PutJobRange assigned to _`
}

func storeRangeBare(s store.Store, jobID string, docs []json.RawMessage) {
	s.PutJobRange(jobID, 0, docs) // want `error from store.PutJobRange discarded by bare call`
}

func storeRangeHandled(s store.Store, jobID string, docs []json.RawMessage) error {
	return s.PutJobRange(jobID, 0, docs)
}

type sink struct{}

func (sink) Write(p []byte) (int, error) { return len(p), nil }

func writeBare(w sink, p []byte) {
	w.Write(p) // want `error from \(method\) Write discarded by bare call`
}

func writeBlank(w sink, p []byte) int {
	n, _ := w.Write(p) // want `error from \(method\) Write assigned to _`
	return n
}

// deferredClose is the conventional defer-drop; defer statements are not
// bare-call statements and stay out of scope for this rule.
func deferredClose(f *os.File, p []byte) {
	defer f.Sync()
}

// unwatchedCalls returning errors are someone else's business: errdrop is
// scoped to the marshal/write/store class PR 3's history shows recurs.
func unwatched(path string) {
	os.Chdir(path)
}
