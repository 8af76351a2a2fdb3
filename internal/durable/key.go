package durable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// EngineVersion participates in every cache key so results computed
// by an older engine can never be served for a newer one. Bump it on
// any change that can alter a cell's canonical result bytes
// (analysis semantics, fusion rules, counter definitions, row
// schema).
const EngineVersion = "isacmp-engine/9"

// KeyInput is everything a cell's result depends on. Code is the
// compiled ELF image — hashing the bytes the machine actually loads
// (not the source) means a compiler change invalidates the cache
// automatically. Analysis and Fusion are canonical spec strings
// produced by the report layer; Parallel/StepLoop and other
// execution-strategy knobs are deliberately excluded because the PR 2
// byte-identity contract guarantees they cannot change the result.
type KeyInput struct {
	Engine   string
	Workload string
	Target   string
	Code     []byte
	Analysis string
	Fusion   string
}

// Hash returns the content address: a SHA-256 over the length-
// prefixed fields, hex-encoded. Length prefixes make the encoding
// injective — no concatenation of fields can collide with another
// split of the same bytes.
func (k KeyInput) Hash() string {
	h := sha256.New()
	field := func(b []byte) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	field([]byte(k.Engine))
	field([]byte(k.Workload))
	field([]byte(k.Target))
	field(k.Code)
	field([]byte(k.Analysis))
	field([]byte(k.Fusion))
	return hex.EncodeToString(h.Sum(nil))
}
