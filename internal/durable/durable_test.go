package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("got %q, %v", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(CachePath(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	hash := KeyInput{Engine: EngineVersion, Workload: "lbm", Target: "rv64", Code: []byte{1, 2, 3}}.Hash()
	if _, ok := c.Get(hash); ok {
		t.Fatal("phantom hit")
	}
	if err := c.Put(hash, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(hash)
	if !ok || string(got) != `{"a":1}` {
		t.Fatalf("get = %q, %v", got, ok)
	}
}

func TestKeyHashInjective(t *testing.T) {
	base := KeyInput{Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"}
	seen := map[string]string{base.Hash(): "base"}
	variants := map[string]KeyInput{
		"engine":   {Engine: "e2", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"workload": {Engine: "e", Workload: "w2", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"target":   {Engine: "e", Workload: "w", Target: "t2", Code: []byte("code"), Analysis: "a", Fusion: "f"},
		"code":     {Engine: "e", Workload: "w", Target: "t", Code: []byte("code2"), Analysis: "a", Fusion: "f"},
		"analysis": {Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a2", Fusion: "f"},
		"fusion":   {Engine: "e", Workload: "w", Target: "t", Code: []byte("code"), Analysis: "a", Fusion: "f2"},
		// Boundary shift: moving a byte across a field boundary must
		// change the hash (length prefixes make the encoding injective).
		"boundary": {Engine: "e", Workload: "w", Target: "t", Code: []byte("codea"), Analysis: "", Fusion: "f"},
	}
	for name, k := range variants {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("variant %q collides with %q", name, prev)
		}
		seen[h] = name
	}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not deterministic")
	}
}

// TestRunOpenResumeLookup pins the run handle over one directory: a
// computed cell is filed and counted, and any later handle on the
// directory, Resume's alias included, serves it from the cache. A hit
// counts as cached once the caller reports it Served, not at Lookup.
func TestRunOpenResumeLookup(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	hash := KeyInput{Engine: EngineVersion, Workload: "lbm", Target: "rv64", Code: []byte("elf")}.Hash()
	if r.Lookup("lbm", "rv64", hash) != nil {
		t.Fatal("fresh run must miss")
	}
	r.CellFinished("lbm", "rv64", hash, []byte(`{"a":1}`), false)
	// A served cell is filed and counted already.
	r.CellFinished("stream", "a64", "hserved", []byte(`{"a":2}`), true)
	if st := r.Stats(); st.Computed != 1 || st.Cached != 0 || st.IOErrors != 0 || st.Dir != dir {
		t.Fatalf("stats = %+v", st)
	}
	if r.Lookup("stream", "a64", "hserved") != nil {
		t.Fatal("a cell passed as fromCache must not be filed")
	}

	for _, open := range []func(string, *Options) (*Run, error){Open, Resume} {
		r2, err := open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := r2.Lookup("lbm", "rv64", hash); string(got) != `{"a":1}` {
			t.Fatalf("cache hit = %q", got)
		}
		if st := r2.Stats(); st.Cached != 0 {
			t.Fatalf("stats = %+v before the hit was served", st)
		}
		r2.Served()
		if st := r2.Stats(); st.Cached != 1 || st.Computed != 0 {
			t.Fatalf("stats = %+v", st)
		}
	}
}

// TestRunSurvivesCacheIOError: a cache write that fails is counted and
// warned once, and the next cell still reaches the cache. A regular
// file where the hash's shard directory goes makes Put fail for any
// user, root included.
func TestRunSurvivesCacheIOError(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var warned []string
	r.Warn = func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) }
	bad := KeyInput{Workload: "lbm", Target: "a64"}.Hash()
	good := KeyInput{Workload: "lbm", Target: "rv64"}.Hash()
	if bad[:2] == good[:2] {
		t.Fatalf("test hashes share shard %s", bad[:2])
	}
	if err := os.WriteFile(filepath.Join(CachePath(dir), bad[:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r.CellFinished("lbm", "a64", bad, []byte(`{"a":1}`), false)
	r.CellFinished("lbm", "rv64", good, []byte(`{"a":2}`), false)
	st := r.Stats()
	if st.IOErrors != 1 || st.Computed != 2 {
		t.Fatalf("stats = %+v, want 1 I/O error over 2 computed cells", st)
	}
	if len(warned) != 1 || !strings.HasPrefix(warned[0], "lbm/a64: cache put") {
		t.Fatalf("warnings = %q, want one cache-put warning", warned)
	}
	if _, ok := r.cache.Get(bad); ok {
		t.Fatal("failed put left an entry")
	}
	if got, ok := r.cache.Get(good); !ok || string(got) != `{"a":2}` {
		t.Fatalf("cell after the fault: %q, %v", got, ok)
	}
}
