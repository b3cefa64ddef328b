package server

// Version identifies the gocserve server build. It is reported by GET
// /healthz and `gocserve -version` alongside the catalog fingerprint, so an
// operator can tell which wire surface a replica serves without submitting
// anything. Bump it when the HTTP surface changes; the catalog fingerprint
// tracks spec-registry changes on its own.
const Version = "0.7.1"
