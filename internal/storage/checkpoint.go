package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"os"
	"path/filepath"

	"confaudit/internal/crypto/accumulator"
	"confaudit/internal/storage/faultfs"
)

// A checkpoint pins the verified prefix of the segment history: the set
// of sealed segments, each one's whole-file SHA-256, and the one-way
// accumulator digest folded over those hashes (A(..A(x0,h1)..,hk), the
// same primitive the cluster uses for record digests — commutative, so
// the fold is order-independent). Restart verifies a checkpointed
// segment with one streaming hash instead of a record-level CRC rescan,
// and re-verifies the accumulator with O(segments-since-checkpoint)
// folds instead of re-accumulating the full history.
//
// The checkpoint file is swapped atomically (tmp + rename + dir fsync),
// so a crash leaves either the old or the new checkpoint, never a torn
// one. A checkpoint written by Compact also moves BaseSeq: replay starts
// at the compaction snapshot segment, which is what bounds restart time
// by checkpoint distance.

// checkpointFile is the durable checkpoint format.
type checkpointFile struct {
	// BaseSeq is the first segment replay reads (the latest compaction
	// snapshot, or the oldest segment if never compacted).
	BaseSeq uint64 `json:"base_seq"`
	// Segments lists every sealed segment covered, ascending seq.
	Segments []cpSegment `json:"segments"`
	// Acc is the accumulator digest over the listed SHAs (hex).
	Acc string `json:"acc"`
	// Quarantined records segments an earlier recovery refused to
	// serve, with the glsn extent known at quarantine time. Without
	// this the extent would survive only one restart: the re-pin drops
	// the segment from the table above, and the damaged file's own
	// CRC-valid prefix usually no longer names the range.
	Quarantined []cpQuarantine `json:"quarantined,omitempty"`
	// Sum is a SHA-256 self-checksum over the rest of the document (the
	// JSON encoding with Sum empty). The accumulator digest only covers
	// the segment SHAs; the self-checksum covers everything else —
	// base_seq, record counts, glsn extents — so a bit flip anywhere in
	// the file makes recovery distrust the whole checkpoint.
	Sum string `json:"sum"`
}

// cpSegment is one sealed segment's pinned identity.
type cpSegment struct {
	Seq     uint64 `json:"seq"`
	SHA     string `json:"sha"`
	Records int64  `json:"records"`
	Bytes   int64  `json:"bytes"`
	GLSNLo  uint64 `json:"glsn_lo,omitempty"`
	GLSNHi  uint64 `json:"glsn_hi,omitempty"`
}

// cpQuarantine is one quarantined segment's durable loss record.
type cpQuarantine struct {
	Seq    uint64 `json:"seq"`
	Reason string `json:"reason"`
	GLSNLo uint64 `json:"glsn_lo,omitempty"`
	GLSNHi uint64 `json:"glsn_hi,omitempty"`
}

const (
	checkpointName = "checkpoint.json"
	checkpointTmp  = "checkpoint.json.tmp"
)

// foldAcc folds segment SHAs into the accumulator from X0.
func foldAcc(params *accumulator.Params, shas [][]byte) *big.Int {
	acc := params.X0
	for _, sha := range shas {
		acc = params.Accumulate(acc, sha)
	}
	return acc
}

// sumOf computes the self-checksum: SHA-256 of the JSON with Sum empty.
func sumOf(cp *checkpointFile) (string, error) {
	clone := *cp
	clone.Sum = ""
	data, err := json.Marshal(&clone)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// writeCheckpoint durably replaces the checkpoint file.
func writeCheckpoint(fsys faultfs.FS, dir string, cp *checkpointFile) error {
	sum, err := sumOf(cp)
	if err != nil {
		return fmt.Errorf("storage: encoding checkpoint: %w", err)
	}
	cp.Sum = sum
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("storage: encoding checkpoint: %w", err)
	}
	tmpPath := filepath.Join(dir, checkpointTmp)
	tmp, err := fsys.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
	if err != nil {
		return fmt.Errorf("storage: creating checkpoint: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close() //nolint:errcheck
		return fmt.Errorf("storage: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //nolint:errcheck
		return fmt.Errorf("storage: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmpPath, filepath.Join(dir, checkpointName)); err != nil {
		return fmt.Errorf("storage: swapping checkpoint: %w", err)
	}
	return fsys.SyncDir(dir)
}

// loadCheckpoint reads and self-verifies the checkpoint. It returns nil
// for a missing file and for a damaged one (unreadable JSON, or an
// accumulator digest that does not match its own segment table):
// recovery then falls back to record-level verification of every
// segment, which is slower but never trusts a lying checkpoint.
func loadCheckpoint(fsys faultfs.FS, dir string, params *accumulator.Params) *checkpointFile {
	f, err := fsys.OpenFile(filepath.Join(dir, checkpointName), os.O_RDONLY, 0)
	if err != nil {
		return nil
	}
	data, err := io.ReadAll(f)
	f.Close() //nolint:errcheck
	if err != nil {
		return nil
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil
	}
	sumWant, err := sumOf(&cp)
	if err != nil || sumWant != cp.Sum {
		return nil
	}
	shas := make([][]byte, 0, len(cp.Segments))
	for _, s := range cp.Segments {
		sha, err := hex.DecodeString(s.SHA)
		if err != nil {
			return nil
		}
		shas = append(shas, sha)
	}
	if foldAcc(params, shas).Text(16) != cp.Acc {
		return nil
	}
	return &cp
}

// cpLookup indexes a checkpoint's segment table by seq.
func cpLookup(cp *checkpointFile) map[uint64]cpSegment {
	if cp == nil {
		return nil
	}
	m := make(map[uint64]cpSegment, len(cp.Segments))
	for _, s := range cp.Segments {
		m[s.Seq] = s
	}
	return m
}
