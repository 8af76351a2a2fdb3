package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"isacmp/internal/simeng"
)

// JournalSchema versions the journal record format. A reader that
// sees a different schema string must refuse the journal rather than
// guess.
const JournalSchema = "isacmp/journal/v1"

// Record types, in the order a cell's life emits them.
const (
	// RecStarted marks a cell handed to a worker. It carries no
	// payload; its presence without a matching finished/failed record
	// is what -resume re-enqueues.
	RecStarted = "cell-started"
	// RecFinished carries the cell's canonical result payload and the
	// content hash of its inputs.
	RecFinished = "cell-finished"
	// RecFailed carries the cell's attempt history (the PR 3 failure
	// record) for a cell that exhausted retries on a real fault.
	// Cancelled/drained cells are never journaled as failed — they
	// must re-run on resume.
	RecFailed = "cell-failed"
	// RecComplete marks the run's natural end; a journal ending with
	// it resumes to a zero-work run.
	RecComplete = "run-complete"
)

// Record is one journal line. Sum is a CRC-32 (IEEE) over the record
// marshaled with Sum set to zero, so a torn or bit-flipped line is
// detected before its payload is trusted.
type Record struct {
	V        string          `json:"v"`
	Seq      int             `json:"seq"`
	Type     string          `json:"type"`
	Workload string          `json:"workload,omitempty"`
	Target   string          `json:"target,omitempty"`
	Hash     string          `json:"hash,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Sum      uint32          `json:"sum"`
}

// checksum computes the record's CRC with Sum zeroed.
func (r *Record) checksum() (uint32, error) {
	saved := r.Sum
	r.Sum = 0
	data, err := json.Marshal(r)
	r.Sum = saved
	if err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(data), nil
}

// File is the journal's write handle. It is an interface so
// faultinject can substitute short-write and ENOSPC wrappers.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configure a journal or run directory.
type Options struct {
	// OpenFile opens the journal file for appending. Nil means the
	// default os.OpenFile(O_CREATE|O_WRONLY|O_APPEND). Fault-injection
	// hook.
	OpenFile func(path string) (File, error)
	// NoSync skips the per-record fsync — only for benchmarks that
	// want to isolate the encoding cost from the disk cost. The
	// crash-consistency argument in DESIGN.md assumes NoSync is off.
	NoSync bool
}

func (o *Options) open(path string) (File, error) {
	if o != nil && o.OpenFile != nil {
		return o.OpenFile(path)
	}
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// JournalPath returns the journal file location inside a run
// directory.
func JournalPath(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// Journal is the append side of the write-ahead log. Append is
// serialized and fsyncs each record before returning, so a record the
// caller saw acknowledged survives a SIGKILL immediately after.
type Journal struct {
	mu   sync.Mutex
	path string
	f    File
	seq  int
	opts Options
}

// OpenJournal opens (creating if needed) the journal in dir for
// appending, continuing the sequence after nextSeq-1.
func OpenJournal(dir string, nextSeq int, opts *Options) (*Journal, error) {
	if opts == nil {
		opts = &Options{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: journal dir: %v", simeng.ErrIO, err)
	}
	path := JournalPath(dir)
	f, err := opts.open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: open journal %s: %v", simeng.ErrIO, path, err)
	}
	return &Journal{path: path, f: f, seq: nextSeq, opts: *opts}, nil
}

// Append fills in the schema version, sequence number and checksum,
// writes the record as one JSONL line and fsyncs it.
func (j *Journal) Append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.V = JournalSchema
	rec.Seq = j.seq
	sum, err := (&rec).checksum()
	if err != nil {
		return fmt.Errorf("%w: journal encode: %v", simeng.ErrIO, err)
	}
	rec.Sum = sum
	line, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("%w: journal encode: %v", simeng.ErrIO, err)
	}
	line = append(line, '\n')
	if n, err := j.f.Write(line); err != nil {
		return fmt.Errorf("%w: journal append: %v", simeng.ErrIO, err)
	} else if n != len(line) {
		return fmt.Errorf("%w: journal append: short write (%d of %d bytes)", simeng.ErrIO, n, len(line))
	}
	if !j.opts.NoSync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("%w: journal sync: %v", simeng.ErrIO, err)
		}
	}
	j.seq++
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// cellKey identifies a matrix cell inside replay maps.
func cellKey(workload, target string) string { return workload + "\x00" + target }

// Replay is the parsed state of a journal: which cells finished,
// which failed terminally, and how trustworthy the tail was.
type Replay struct {
	// Finished maps cellKey -> the first cell-finished record.
	Finished map[string]*Record
	// Failed maps cellKey -> the first cell-failed record, for cells
	// with no finished record.
	Failed map[string]*Record
	// Started maps cellKey -> true for every cell-started seen.
	Started map[string]bool
	// Complete is true when a run-complete record was replayed.
	Complete bool
	// Records is the count of valid records replayed.
	Records int
	// TornTail is true when the journal ended in a torn or corrupt
	// final line that was tolerated (the crash wrote part of a record).
	TornTail bool
	// Dups counts duplicate cell-finished/cell-failed records that
	// were ignored (first wins).
	Dups int
}

// Lookup returns the terminal record for a cell: finished wins over
// failed.
func (rp *Replay) Lookup(workload, target string) *Record {
	k := cellKey(workload, target)
	if r, ok := rp.Finished[k]; ok {
		return r
	}
	if r, ok := rp.Failed[k]; ok {
		return r
	}
	return nil
}

// ReplayJournal reads and verifies a journal file. A missing file
// replays as empty.
func ReplayJournal(dir string) (*Replay, error) {
	data, err := os.ReadFile(JournalPath(dir))
	if os.IsNotExist(err) {
		return ReplayData(nil)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: read journal: %v", simeng.ErrIO, err)
	}
	return ReplayData(data)
}

// ReplayData replays journal bytes. The torn-tail rule: a final line
// that fails to parse or checksum is tolerated (the process died
// mid-append) — but a bad line followed by further valid records
// means corruption in the middle of the file, which is an error
// because silently skipping it could resurrect stale state. The
// function never panics on any input (FuzzJournalReplay pins this).
func ReplayData(data []byte) (*Replay, error) {
	rp := &Replay{
		Finished: make(map[string]*Record),
		Failed:   make(map[string]*Record),
		Started:  make(map[string]bool),
	}
	lines := bytes.Split(data, []byte{'\n'})
	wantSeq := -1
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec := new(Record)
		bad, torn := "", true
		if err := json.Unmarshal(line, rec); err != nil {
			bad = fmt.Sprintf("parse: %v", err)
		} else if rec.V != JournalSchema {
			bad = fmt.Sprintf("schema %q (want %q)", rec.V, JournalSchema)
		} else if sum, err := rec.checksum(); err != nil || sum != rec.Sum {
			bad = fmt.Sprintf("checksum %08x (want %08x)", rec.Sum, sum)
		} else if wantSeq >= 0 && rec.Seq <= wantSeq {
			// A checksummed record with a stale sequence cannot come
			// from a crash mid-append (the checksum covers Seq): it is
			// corruption wherever it sits, never a tolerated tear.
			bad, torn = fmt.Sprintf("sequence %d not after %d", rec.Seq, wantSeq), false
		}
		if bad != "" {
			if torn && tailOnly(lines[i+1:]) {
				rp.TornTail = true
				return rp, nil
			}
			return nil, fmt.Errorf("%w: journal record %d: %s (journal is corrupt, not torn)", simeng.ErrIO, rp.Records, bad)
		}
		wantSeq = rec.Seq
		rp.Records++
		k := cellKey(rec.Workload, rec.Target)
		switch rec.Type {
		case RecStarted:
			rp.Started[k] = true
		case RecFinished:
			if _, dup := rp.Finished[k]; dup {
				rp.Dups++
			} else {
				rp.Finished[k] = rec
			}
		case RecFailed:
			if _, dup := rp.Failed[k]; dup {
				rp.Dups++
			} else {
				rp.Failed[k] = rec
			}
		case RecComplete:
			rp.Complete = true
		default:
			// Unknown record types from a future minor revision are
			// skipped, not fatal: the schema string gates real breaks.
		}
	}
	return rp, nil
}

// tailOnly reports whether the remaining lines hold no further valid
// record — the condition under which a bad line is a tolerated torn
// tail rather than mid-file corruption.
func tailOnly(rest [][]byte) bool {
	for _, line := range rest {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec := new(Record)
		if err := json.Unmarshal(line, rec); err != nil {
			continue
		}
		if rec.V != JournalSchema {
			continue
		}
		if sum, err := rec.checksum(); err == nil && sum == rec.Sum {
			return false
		}
	}
	return true
}

// Compact rewrites the journal to contain exactly the surviving
// records of a replay — finished and failed cells, re-sequenced from
// zero — dropping any torn tail, duplicates, superseded records and
// the run-complete marker (the resumed run will write its own). The
// rewrite goes through WriteFileAtomic so a crash during compaction
// leaves the previous journal intact. Returns the next sequence
// number for appending.
func Compact(dir string, rp *Replay) (int, error) {
	var buf bytes.Buffer
	seq := 0
	emit := func(rec *Record) error {
		c := *rec // copy: renumbering must not alias replay state
		c.Seq = seq
		sum, err := (&c).checksum()
		if err != nil {
			return err
		}
		c.Sum = sum
		line, err := json.Marshal(&c)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
		seq++
		return nil
	}
	// Deterministic order: replay order is lost in the maps, so emit
	// by sorted cell key; byte-identity of outputs never depends on
	// journal order, only on the set of records.
	for _, k := range sortedKeys(rp.Finished) {
		if err := emit(rp.Finished[k]); err != nil {
			return 0, fmt.Errorf("%w: journal compact: %v", simeng.ErrIO, err)
		}
	}
	for _, k := range sortedKeys(rp.Failed) {
		if _, done := rp.Finished[k]; done {
			continue
		}
		if err := emit(rp.Failed[k]); err != nil {
			return 0, fmt.Errorf("%w: journal compact: %v", simeng.ErrIO, err)
		}
	}
	if err := WriteFileAtomic(JournalPath(dir), buf.Bytes(), 0o644); err != nil {
		return 0, err
	}
	return seq, nil
}

func sortedKeys(m map[string]*Record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
