package experiment

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"sentinel/internal/metrics"
)

// The result journal is the durable half of the crash-safe sweep layer: an
// append-only on-disk log of completed simulation cells, each recorded
// under its plan-cache key. A sweep that is killed — SIGKILL included —
// loses at most the cells still in flight; on the next run, Replay seeds
// the shared Cache from the journal and only incomplete cells recompute.
//
// Format: an 8-byte magic header, then length-prefixed records:
//
//	[4B LE payload length][4B LE CRC32(payload)][payload]
//
// where payload is the JSON encoding of journalEntry. Appends are a single
// write(2) on an O_APPEND descriptor, so concurrent workers never
// interleave records; a crash mid-write leaves a truncated tail record
// whose length prefix or checksum cannot validate. Decoding is
// corruption-tolerant by construction: a truncated or bit-flipped record
// is detected, reported, and everything from it on is dropped — the cells
// it held simply recompute. Corrupt data is never trusted.

// journalMagic identifies (and versions) the journal file format.
const journalMagic = "SNTLJRN1"

// journalFile is the journal's file name inside its directory.
const journalFile = "results.journal"

// journalHeaderLen is the per-record framing overhead: length + checksum.
const journalHeaderLen = 8

// maxJournalRecord bounds a single record's payload. A length prefix
// beyond it is framing corruption, not a real record — no simulation cell
// serializes to a gigabyte.
const maxJournalRecord = 1 << 30

// ErrNotJournal reports a journal file whose magic header is missing or
// wrong — a different file, or corruption at offset zero.
var ErrNotJournal = errors.New("not a sentinel result journal")

// journalEntry is one journaled cell: its cache key and its result.
type journalEntry struct {
	Key   string            `json:"key"`
	Stats *metrics.RunStats `json:"stats"`
}

// Journal is a durable, append-only log of completed sweep cells. It is
// safe for concurrent use by pool workers. Append errors are sticky and
// deliberately non-fatal: a cell whose result cannot be persisted is still
// a valid result, only its durability is lost — Err surfaces the problem
// at the end of the sweep.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	appended  int
	appendErr error // first append failure, sticky
}

// OpenJournal opens (creating as needed) the result journal inside dir.
// An existing journal is opened for appending — records accumulate across
// runs; Replay handles duplicate keys. An existing file that is not a
// journal is refused rather than overwritten.
func OpenJournal(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	// Validate the header of any existing file before appending to it.
	if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		head := make([]byte, len(journalMagic))
		rf, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		n, _ := rf.Read(head)
		rf.Close()
		if n < len(journalMagic) || string(head) != journalMagic {
			return nil, fmt.Errorf("journal %s: %w", path, ErrNotJournal)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path}
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: writing header: %w", err)
		}
	}
	return j, nil
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Appended reports how many records this Journal instance has written.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the first append failure, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendErr
}

// Append records one completed cell. The record is framed and written in
// a single write so a crash cannot interleave records, only truncate the
// tail — which Replay detects and drops.
func (j *Journal) Append(key string, stats *metrics.RunStats) error {
	rec, err := encodeJournalRecord(journalEntry{Key: key, Stats: stats})
	if err != nil {
		j.fail(err)
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(rec); err != nil {
		if j.appendErr == nil {
			j.appendErr = err
		}
		return err
	}
	j.appended++
	return nil
}

func (j *Journal) fail(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.appendErr == nil {
		j.appendErr = err
	}
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Replay seeds c with every decodable record in the journal, returning how
// many cells were restored (seeded into the cache; duplicates and keys the
// cache already holds don't count) and how many records were skipped as
// truncated or corrupt. Skipped records are harmless: their cells simply
// recompute.
func (j *Journal) Replay(c *Cache) (restored, skipped int, err error) {
	data, err := os.ReadFile(j.path)
	if err != nil {
		return 0, 0, fmt.Errorf("journal: %w", err)
	}
	restored, skipped, err = decodeJournal(data, func(e journalEntry) bool {
		return c.Seed(e.Key, e.Stats)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("journal %s: %w", j.path, err)
	}
	return restored, skipped, nil
}

// encodeJournalRecord frames one entry: length, checksum, JSON payload.
func encodeJournalRecord(e journalEntry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding %q: %w", e.Key, err)
	}
	rec := make([]byte, journalHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[journalHeaderLen:], payload)
	return rec, nil
}

// decodeJournal walks a journal file image, invoking emit for every valid
// entry (emit reports whether the entry was actually used — deduplication
// happens in the cache). It never panics on arbitrary input — the fuzz
// test FuzzJournalDecode holds it to that — and never trusts corrupt
// data:
//
//   - a record whose length prefix overruns the file, whose checksum does
//     not match, or whose header is itself truncated ends decoding there
//     (a flipped length byte would desync all later framing, so nothing
//     beyond the first bad record is believable);
//   - a record that frames correctly but fails JSON decoding, or decodes
//     to a nil/keyless entry, is skipped individually — framing is intact,
//     so later records are still trustworthy.
func decodeJournal(data []byte, emit func(e journalEntry) bool) (restored, skipped int, err error) {
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return 0, 0, ErrNotJournal
	}
	rest := data[len(journalMagic):]
	for len(rest) > 0 {
		if len(rest) < journalHeaderLen {
			skipped++ // truncated tail: a partial header
			break
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxJournalRecord || int(n) > len(rest)-journalHeaderLen {
			skipped++ // truncated tail or corrupt length prefix
			break
		}
		payload := rest[journalHeaderLen : journalHeaderLen+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			skipped++ // bit-flipped record: framing beyond it is suspect
			break
		}
		var e journalEntry
		if jsonErr := json.Unmarshal(payload, &e); jsonErr != nil || e.Key == "" || e.Stats == nil {
			skipped++ // framed correctly but not a usable entry
		} else if emit(e) {
			restored++
		}
		rest = rest[journalHeaderLen+int(n):]
	}
	return restored, skipped, nil
}
