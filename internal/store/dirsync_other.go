//go:build !unix

package store

// fsyncDir is a no-op on platforms that cannot fsync a directory: there a
// power cut right after OpenFile creates the log, or after a compaction
// renames the new log into place, may undo that step.
func fsyncDir(dir string) error { return nil }
