// Package obs is the live control plane layered over the passive
// telemetry package: an embedded HTTP server exposing the metrics
// registry as Prometheus text (/metrics), liveness and readiness
// probes (/healthz, /readyz), a live matrix status view (/statusz), a
// server-sent-event stream of cell lifecycle transitions (/events)
// and the stdlib pprof handlers (/debug/pprof); a status Board that
// the report runner drives through cell transitions; a bounded
// flight recorder producing post-mortem JSON artifacts for cells that
// die with a SimError.
//
// Layering: telemetry stays passive (counters you read after the run);
// obs makes the same registry queryable while the matrix is running.
// obs imports telemetry, isa and simeng only — report imports obs,
// never the reverse.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// NewRunID returns a fresh run identifier: UTC timestamp for humans
// plus random bytes for uniqueness, e.g. "20260805T120301Z-9f2c4a81".
// Every log line, status document and post-mortem artifact of a run
// carries it, so artifacts from concurrent or repeated runs never
// collide and always join.
func NewRunID() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively impossible; fall back to
		// the clock alone rather than failing the run over an ID.
		return time.Now().UTC().Format("20060102T150405Z")
	}
	return fmt.Sprintf("%s-%s", time.Now().UTC().Format("20060102T150405Z"), hex.EncodeToString(b[:]))
}
