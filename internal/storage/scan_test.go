package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"confaudit/internal/storage/faultfs"
)

// segBytes renders a segment: the header, then each frame as given.
func segBytes(frames ...[]byte) []byte {
	b := append([]byte(segMagic), flagAppend)
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// frameHeader is a bare frame header claiming length and crc.
func frameHeader(length, crc uint32) []byte {
	var h [8]byte
	binary.LittleEndian.PutUint32(h[0:], length)
	binary.LittleEndian.PutUint32(h[4:], crc)
	return h[:]
}

// TestScanFileClassification pins how a segment scan classifies damage
// over crafted bytes: a file that ends inside the header or a frame is a
// torn tail (a crash mid-write), anything else that fails to parse is
// corruption, and every intact frame before the damage is kept.
func TestScanFileClassification(t *testing.T) {
	good1 := appendFrame(nil, rec(1))
	good2 := appendFrame(nil, rec(2))
	badCRC := append([]byte(nil), good1...)
	badCRC[len(badCRC)-1] ^= 0xFF
	garbage := []byte{0xFF, 0xFF, 0xFF}
	undecodable := append(frameHeader(uint32(len(garbage)), crc32.ChecksumIEEE(garbage)), garbage...)
	hdr := int64(headerSize)
	withGood := hdr + int64(len(good1))

	cases := []struct {
		name    string
		data    []byte
		torn    bool
		corrupt string // prefix of the reason; "" for a clean or torn file
		keep    int64
		records int64
	}{
		{name: "empty file", data: nil, torn: true, keep: 0},
		{name: "short header", data: []byte(segMagic[:5]), torn: true, keep: 0},
		{name: "bad magic", data: append([]byte("NOTASEG\n"), flagAppend), corrupt: "bad segment magic", keep: 0},
		{name: "header only", data: segBytes(), keep: hdr},
		{name: "two frames", data: segBytes(good1, good2), keep: withGood + int64(len(good2)), records: 2},
		{name: "torn frame header", data: segBytes(good1, good2[:5]), torn: true, keep: withGood, records: 1},
		{name: "torn payload", data: segBytes(good1, good2[:len(good2)-3]), torn: true, keep: withGood, records: 1},
		{name: "over-limit length at the tail", data: segBytes(good1, frameHeader(maxFrame+1, 0)), torn: true, keep: withGood, records: 1},
		// A claimed length past maxFrame with the bytes actually present
		// is not a crash artifact: the file was written that long.
		{name: "over-limit length mid-file", data: segBytes(good1, frameHeader(maxFrame+1, 0), make([]byte, maxFrame+1)), corrupt: "frame length", keep: withGood, records: 1},
		{name: "crc mismatch", data: segBytes(badCRC, good2), corrupt: "crc mismatch at offset 9", keep: hdr},
		{name: "crc mismatch on the last frame", data: segBytes(good1, badCRC), corrupt: "crc mismatch", keep: withGood, records: 1},
		{name: "undecodable payload", data: segBytes(good1, undecodable, good2), corrupt: "undecodable record", keep: withGood, records: 1},
		// The file grew but the appended bytes never landed.
		{name: "zero-filled tail", data: segBytes(good1, make([]byte, 64)), torn: true, keep: withGood, records: 1},
		{name: "zero run mid-file", data: segBytes(good1, make([]byte, 64), good2), corrupt: "undecodable record", keep: withGood, records: 1},
	}

	dir := t.TempDir()
	d := &Disk{fsys: faultfs.OS{}}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("case-%d", i))
			if err := os.WriteFile(path, c.data, 0o600); err != nil {
				t.Fatal(err)
			}
			var got []Record
			scan, err := d.scanFile(path, func(r Record) error {
				got = append(got, r)
				return nil
			})
			if err != nil {
				t.Fatalf("scanFile: %v", err)
			}
			if scan.torn != c.torn {
				t.Errorf("torn = %v, want %v", scan.torn, c.torn)
			}
			if (c.corrupt == "") != (scan.corrupt == "") || !strings.HasPrefix(scan.corrupt, c.corrupt) {
				t.Errorf("corrupt = %q, want prefix %q", scan.corrupt, c.corrupt)
			}
			if scan.keep != c.keep {
				t.Errorf("keep = %d, want %d", scan.keep, c.keep)
			}
			if scan.meta.records != c.records || int64(len(got)) != c.records {
				t.Errorf("records = %d (%d delivered), want %d", scan.meta.records, len(got), c.records)
			}
			for j, r := range got {
				if want := rec(uint64(j + 1)); r.GLSN != want.GLSN || r.Kind != want.Kind || !bytes.Equal(r.Data, want.Data) {
					t.Errorf("record %d = %+v, want %+v", j, r, want)
				}
			}
			if c.corrupt == "" && c.keep >= hdr {
				var sum [sha256.Size]byte
				scan.hash.Sum(sum[:0])
				if want := sha256.Sum256(c.data[:c.keep]); sum != want {
					t.Errorf("hash does not cover exactly the %d-byte valid prefix", c.keep)
				}
			}
		})
	}
}

// TestRecoveryAllocationIsLinear bounds what recovery allocates: Open
// (which record-scans every unpinned segment) and a full Replay each
// allocate at most 1.5× the bytes on disk. Reading a whole segment into
// one growing slice costs several times that, on every restart.
func TestRecoveryAllocationIsLinear(t *testing.T) {
	dir := t.TempDir()
	o := Options{Backend: BackendDisk, Dir: dir, Sync: SyncNever}
	s := mustOpen(t, o, nil)
	data := bytes.Repeat([]byte{'x'}, 240)
	batch := make([]Record, 0, 256)
	const n = 24000
	for g := uint64(1); g <= n; g++ {
		batch = append(batch, Record{Kind: "frag", GLSN: g, Data: data})
		if len(batch) == cap(batch) || g == n {
			if err := s.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk := dirSize(t, dir)
	if onDisk < 5<<20 {
		t.Fatalf("store is %d bytes; the bound is meant for a multi-MB store", onDisk)
	}

	var s2 Store
	openAlloc := allocated(func() { s2 = mustOpen(t, o, nil) })
	defer s2.Close() //nolint:errcheck
	if st := s2.Status(); st.RecoveryScannedRecords != n {
		t.Fatalf("recovery scanned %d records, want all %d", st.RecoveryScannedRecords, n)
	}
	replayed := 0
	replayAlloc := allocated(func() {
		if err := s2.Replay(func(Record) error { replayed++; return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if replayed != n {
		t.Fatalf("replayed %d records, want %d", replayed, n)
	}
	limit := onDisk * 3 / 2
	t.Logf("on disk %d B; Open allocated %d B, Replay %d B", onDisk, openAlloc, replayAlloc)
	if openAlloc > limit {
		t.Errorf("Open allocated %d B for a %d-byte store (limit %d)", openAlloc, onDisk, limit)
	}
	if replayAlloc > limit {
		t.Errorf("Replay allocated %d B for a %d-byte store (limit %d)", replayAlloc, onDisk, limit)
	}
}

// allocated reports the heap bytes fn allocates.
func allocated(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// dirSize sums the sizes of the files in dir.
func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}
