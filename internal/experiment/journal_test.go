package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sentinel/internal/memsys"
	"sentinel/internal/metrics"
	"sentinel/internal/simtime"
)

// testStats builds a RunStats exercising every field class the journal
// must round-trip: scalars, per-layer slices, and the Fig. 9 bandwidth
// trace with its unexported-field codec.
func testStats(seed int64) *metrics.RunStats {
	bw := memsys.NewBWTrace(5 * simtime.Millisecond)
	bw.AddAccess(simtime.Time(seed*7), memsys.Fast, 4096+seed)
	bw.AddAccess(simtime.Time(seed*11), memsys.Slow, 512)
	bw.AddMigration(simtime.Time(seed*13), 1<<20)
	return &metrics.RunStats{
		Policy: "sentinel", Model: "resnet32", Batch: int(128 + seed),
		Diverged: seed%2 == 0,
		Steps: []*metrics.StepStats{
			{
				Step: 0, Duration: simtime.Duration(seed * 1000), ComputeTime: 5,
				MemTime: 6, StallTime: 7, FaultTime: 8, RecomputeTime: 9,
				MigratedIn: 10, MigratedOut: 11, DemandMigrations: 12,
				FastBytes: 13, SlowBytes: 14, Faults: 15, MigrateRetries: 16,
				Degraded: 17, Diverged: true, PeakMapped: 18, PeakFastUsed: 19,
				LayerTime:        []simtime.Duration{1, 2, 3},
				LayerComputeTime: []simtime.Duration{4, 5},
				LayerMemTime:     []simtime.Duration{6},
				Trace:            bw,
			},
			{Step: 1, Duration: simtime.Duration(seed * 2000)},
		},
	}
}

func openTestJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, dir
}

func TestJournalRoundTrip(t *testing.T) {
	j, dir := openTestJournal(t)
	want := map[string]*metrics.RunStats{}
	for i := int64(1); i <= 5; i++ {
		key := "run|cell|" + string(rune('a'+i))
		s := testStats(i)
		want[key] = s
		if err := j.Append(key, s); err != nil {
			t.Fatal(err)
		}
	}
	if j.Appended() != 5 {
		t.Fatalf("Appended() = %d, want 5", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Journal handle on the same directory replays everything.
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c := NewCache()
	restored, skipped, err := j2.Replay(c)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 5 || skipped != 0 {
		t.Fatalf("restored %d skipped %d, want 5/0", restored, skipped)
	}
	for key, w := range want {
		v, err := c.do(key, func() (any, error) { t.Fatalf("%s recomputed", key); return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*metrics.RunStats)
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("%s did not round-trip:\ngot  %+v\nwant %+v", key, got, w)
		}
		// The bandwidth trace must survive with its unexported fields.
		gf, gs, gm := got.Steps[0].Trace.Totals()
		wf, ws, wm := w.Steps[0].Trace.Totals()
		if gf != wf || gs != ws || gm != wm {
			t.Fatalf("%s: BWTrace totals diverged: got %d/%d/%d want %d/%d/%d", key, gf, gs, gm, wf, ws, wm)
		}
	}
}

func TestJournalReopenAppends(t *testing.T) {
	j, dir := openTestJournal(t)
	if err := j.Append("k1", testStats(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append("k2", testStats(2)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	c := NewCache()
	restored, skipped, err := j3.Replay(c)
	if err != nil || restored != 2 || skipped != 0 {
		t.Fatalf("after reopen: restored=%d skipped=%d err=%v, want 2/0/nil", restored, skipped, err)
	}
}

// TestJournalTruncatedTail proves the crash-mid-write story: for every
// possible truncation point inside the last record, replay recovers every
// earlier record and reports the mangled tail as skipped.
func TestJournalTruncatedTail(t *testing.T) {
	j, dir := openTestJournal(t)
	for i := int64(1); i <= 3; i++ {
		if err := j.Append("k"+string(rune('0'+i)), testStats(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, journalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Find the byte offset where the third record starts.
	offsets := recordOffsets(t, full)
	if len(offsets) != 3 {
		t.Fatalf("expected 3 records, found %d", len(offsets))
	}
	for cut := offsets[2] + 1; cut < len(full); cut += 7 {
		c := NewCache()
		restored, skipped, err := decodeJournal(full[:cut], func(e journalEntry) bool {
			return c.Seed(e.Key, e.Stats)
		})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if restored != 2 {
			t.Fatalf("cut at %d: restored %d records, want the 2 intact ones", cut, restored)
		}
		if skipped != 1 {
			t.Fatalf("cut at %d: skipped %d, want 1 (the truncated tail)", cut, skipped)
		}
	}
}

// TestJournalBitFlippedTail proves a corrupted (not just truncated) tail
// record is rejected by its checksum rather than trusted.
func TestJournalBitFlippedTail(t *testing.T) {
	j, dir := openTestJournal(t)
	for i := int64(1); i <= 3; i++ {
		if err := j.Append("k"+string(rune('0'+i)), testStats(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	path := filepath.Join(dir, journalFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offsets := recordOffsets(t, full)
	// Flip one payload byte in the last record (past its 8-byte header).
	full[offsets[2]+journalHeaderLen+3] ^= 0x40
	restored, skipped, err := decodeJournal(full, func(journalEntry) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 || skipped != 1 {
		t.Fatalf("restored=%d skipped=%d, want 2 intact + 1 rejected", restored, skipped)
	}
}

// TestJournalGarbageTail proves arbitrary bytes appended after valid
// records (the CI corrupt-tail smoke) do not poison replay.
func TestJournalGarbageTail(t *testing.T) {
	j, dir := openTestJournal(t)
	if err := j.Append("k1", testStats(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("XXgarbage")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	restored, skipped, err := j2.Replay(NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 || skipped == 0 {
		t.Fatalf("restored=%d skipped=%d, want 1 restored and the garbage skipped", restored, skipped)
	}
}

func TestJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(dir); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("OpenJournal on a foreign file: %v, want ErrNotJournal", err)
	}
}

func TestDecodeJournalEmptyAndHeaderOnly(t *testing.T) {
	if _, _, err := decodeJournal(nil, nil); !errors.Is(err, ErrNotJournal) {
		t.Fatalf("nil input: %v, want ErrNotJournal", err)
	}
	restored, skipped, err := decodeJournal([]byte(journalMagic), func(journalEntry) bool { return true })
	if err != nil || restored != 0 || skipped != 0 {
		t.Fatalf("header-only journal: restored=%d skipped=%d err=%v", restored, skipped, err)
	}
}

func TestJournalDuplicateKeysSeedOnce(t *testing.T) {
	j, dir := openTestJournal(t)
	for i := 0; i < 3; i++ {
		if err := j.Append("same-key", testStats(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c := NewCache()
	restored, _, err := j2.Replay(c)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored %d, want 1 (first record wins, later duplicates ignored)", restored)
	}
	if s := c.Stats(); s.Seeded != 1 {
		t.Fatalf("cache seeded %d entries, want 1", s.Seeded)
	}
}

// recordOffsets walks the framing and returns each record's byte offset.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	pos := len(journalMagic)
	for pos+journalHeaderLen <= len(data) {
		offs = append(offs, pos)
		n := int(uint32(data[pos]) | uint32(data[pos+1])<<8 | uint32(data[pos+2])<<16 | uint32(data[pos+3])<<24)
		pos += journalHeaderLen + n
	}
	if pos != len(data) {
		t.Fatalf("framing walk ended at %d of %d", pos, len(data))
	}
	return offs
}

// FuzzJournalDecode holds the decoder to its core contract: arbitrary
// bytes never panic it, and whatever it does emit passed the checksum.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(journalMagic))
	f.Add([]byte("SNTLJRN0 wrong version"))
	if rec, err := encodeJournalRecord(journalEntry{Key: "k", Stats: testStats(1)}); err == nil {
		valid := append([]byte(journalMagic), rec...)
		f.Add(valid)
		f.Add(valid[:len(valid)-3])          // truncated tail
		f.Add(append(valid, 0x01, 0x02))     // garbage tail
		f.Add(append(valid, valid[8:12]...)) // dangling header
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, skipped, err := decodeJournal(data, func(e journalEntry) bool {
			if e.Key == "" || e.Stats == nil {
				t.Fatal("decoder emitted an unusable entry")
			}
			return true
		})
		if err != nil && !errors.Is(err, ErrNotJournal) {
			t.Fatalf("unexpected error class: %v", err)
		}
		if restored < 0 || skipped < 0 {
			t.Fatalf("negative counts: %d/%d", restored, skipped)
		}
	})
}

// replayImage writes a journal file image to a fresh directory and
// replays it into c — the path `-resume` takes, for arbitrary bytes.
func replayImage(t *testing.T, c *Cache, image []byte) (restored, skipped int, err error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), journalFile)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	return (&Journal{path: path}).Replay(c)
}

// TestMergeJournalDuplicateDeterministic pins first-write-wins across
// journals: replaying a second journal into a cache that already holds
// one of its cells neither restores nor overwrites that cell, so the
// order of replays decides, byte-for-byte, every time.
func TestMergeJournalDuplicateDeterministic(t *testing.T) {
	img := func(stats *metrics.RunStats) []byte {
		rec, err := encodeJournalRecord(journalEntry{Key: "run|dup", Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		return append([]byte(journalMagic), rec...)
	}
	first, second := testStats(1), testStats(2)

	c := NewCache()
	if restored, _, err := replayImage(t, c, img(first)); err != nil || restored != 1 {
		t.Fatalf("first replay: restored %d, err %v", restored, err)
	}
	if restored, skipped, err := replayImage(t, c, img(second)); err != nil || restored != 0 || skipped != 0 {
		t.Fatalf("duplicate replay: restored %d skipped %d err %v, want 0/0/nil", restored, skipped, err)
	}
	v, err := c.do("run|dup", func() (any, error) {
		t.Fatal("replayed cell recomputed")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v, first) {
		t.Fatal("duplicate replay did not keep the first-written stats")
	}
}

// FuzzMergeJournal extends the decoder fuzzer to replaying two journal
// images into one cache: two arbitrary images — truncated, bit-flipped,
// duplicate-keyed — never panic Replay, and whatever image A restored is
// never overwritten by image B (first-write wins).
func FuzzMergeJournal(f *testing.F) {
	recA, errA := encodeJournalRecord(journalEntry{Key: "k", Stats: testStats(1)})
	recB, errB := encodeJournalRecord(journalEntry{Key: "k", Stats: testStats(2)})
	recC, errC := encodeJournalRecord(journalEntry{Key: "other", Stats: testStats(3)})
	if errA != nil || errB != nil || errC != nil {
		f.Fatal(errA, errB, errC)
	}
	a := append([]byte(journalMagic), recA...)
	b := append([]byte(journalMagic), recB...)
	f.Add(a, b)                                  // duplicate key across journals
	f.Add(a, append(b[:len(b):len(b)], recC...)) // duplicate + fresh key
	f.Add(a[:len(a)-4], b)                       // truncated tail in A
	f.Add(a, b[:11])                             // dangling header in B
	flipped := append([]byte{}, b...)
	flipped[len(flipped)-1] ^= 0x40
	f.Add(a, flipped) // bit-flipped payload in B
	f.Add([]byte{}, []byte(journalMagic))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		// Expected survivors: first occurrence of each key in A, then
		// first-in-B for keys A does not hold.
		want := map[string]*metrics.RunStats{}
		for _, img := range [][]byte{a, b} {
			decodeJournal(img, func(e journalEntry) bool {
				if _, ok := want[e.Key]; !ok {
					want[e.Key] = e.Stats
				}
				return true
			})
		}
		c := NewCache()
		for _, img := range [][]byte{a, b} {
			restored, skipped, err := replayImage(t, c, img)
			if err != nil && !errors.Is(err, ErrNotJournal) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if restored < 0 || skipped < 0 {
				t.Fatalf("negative counts: %d/%d", restored, skipped)
			}
		}
		for key, stats := range want {
			recomputed := false
			v, err := c.do(key, func() (any, error) { recomputed = true; return nil, nil })
			if err != nil {
				t.Fatalf("replayed key %q: %v", key, err)
			}
			if recomputed {
				t.Fatalf("decodable key %q missing after replay", key)
			}
			if !reflect.DeepEqual(v, stats) {
				t.Fatalf("key %q: replay did not keep the first-written stats", key)
			}
		}
	})
}
