package resilience

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"repro/internal/obs"
	"repro/internal/tbr"
)

// checkpointMagic and checkpointVersion gate the decoder: files written
// by other tools or by an incompatible future format are rejected
// before any field is trusted.
const (
	checkpointMagic   = "megsim-checkpoint"
	checkpointVersion = 1
)

// errCorrupt marks a checkpoint file that failed structural validation:
// empty, truncated, unparseable, wrong magic/version, or a CRC
// mismatch. Callers fall back to a fresh run — the file's contents are
// never partially trusted.
var errCorrupt = errors.New("resilience: corrupt checkpoint")

// errFingerprint marks a structurally valid checkpoint recorded under a
// different run configuration; resuming from it would mix incompatible
// statistics.
var errFingerprint = errors.New("resilience: checkpoint fingerprint mismatch")

// FrameRecord is one completed frame inside a checkpoint: its
// statistics, its per-frame observability delta (nil when the run had
// observability disabled), and how many attempts it took.
type FrameRecord struct {
	Frame    int            `json:"frame"`
	Attempts int            `json:"attempts"`
	Stats    tbr.FrameStats `json:"stats"`
	Obs      *obs.Snapshot  `json:"obs,omitempty"`
}

// Checkpoint is the persisted progress of a supervised run. Frames are
// kept sorted by frame index so the encoding is canonical: two runs
// with the same completed set write byte-identical files regardless of
// completion order.
type Checkpoint struct {
	// Fingerprint identifies the run configuration the progress
	// belongs to (see Config.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// Frames are the completed frames, ascending by index.
	Frames []FrameRecord `json:"frames"`
	// Quarantined are the frames given up on, ascending by frame.
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
	// Stream is the streaming first phase's strata snapshot
	// (stream.Ingestor.Snapshot), empty for batch campaigns. It rides
	// inside the CRC envelope, so a torn write can never present valid
	// frame records with damaged strata state: an interrupted streaming
	// campaign resumes ingest mid-stream byte-identically or not at all.
	Stream json.RawMessage `json:"stream,omitempty"`
}

// checkpointFile is the on-disk envelope: the payload bytes are
// checksummed so truncation and bit rot are detected before the payload
// is decoded.
type checkpointFile struct {
	Magic   string          `json:"magic"`
	Version int             `json:"version"`
	CRC32   uint32          `json:"crc32"`
	Body    json.RawMessage `json:"body"`
}

// sortFrames enforces the canonical ordering.
func (c *Checkpoint) sortFrames() {
	sort.Slice(c.Frames, func(i, j int) bool { return c.Frames[i].Frame < c.Frames[j].Frame })
	sort.Slice(c.Quarantined, func(i, j int) bool { return c.Quarantined[i].Frame < c.Quarantined[j].Frame })
}

// EncodeCheckpoint serializes a checkpoint into the checksummed
// envelope format.
func EncodeCheckpoint(c *Checkpoint) ([]byte, error) {
	c.sortFrames()
	body, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(checkpointFile{
		Magic:   checkpointMagic,
		Version: checkpointVersion,
		CRC32:   crc32.ChecksumIEEE(body),
		Body:    body,
	}, "", " ")
}

// decodeCheckpoint parses and validates checkpoint bytes. Anything
// structurally wrong — empty input, truncated JSON, wrong magic or
// version, checksum mismatch, malformed payload — returns an error
// wrapping ErrCorrupt with the specific cause.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty file", errCorrupt)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	if f.Magic != checkpointMagic {
		return nil, fmt.Errorf("%w: magic %q", errCorrupt, f.Magic)
	}
	if f.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", errCorrupt, f.Version, checkpointVersion)
	}
	// The envelope is written indented, which re-indents the embedded
	// body, so the checksum is taken over the compacted bytes — the
	// exact form it was computed over at encode time.
	var compact bytes.Buffer
	if err := json.Compact(&compact, f.Body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", errCorrupt, err)
	}
	if got := crc32.ChecksumIEEE(compact.Bytes()); got != f.CRC32 {
		return nil, fmt.Errorf("%w: crc32 %08x != %08x", errCorrupt, got, f.CRC32)
	}
	var c Checkpoint
	if err := json.Unmarshal(f.Body, &c); err != nil {
		return nil, fmt.Errorf("%w: body: %v", errCorrupt, err)
	}
	for i, fr := range c.Frames {
		if fr.Frame < 0 {
			return nil, fmt.Errorf("%w: negative frame index %d", errCorrupt, fr.Frame)
		}
		if i > 0 && c.Frames[i-1].Frame >= fr.Frame {
			return nil, fmt.Errorf("%w: frames not strictly ascending at %d", errCorrupt, fr.Frame)
		}
	}
	return &c, nil
}

// SaveCheckpoint atomically AND durably persists a checkpoint: the
// encoding is written to a temporary sibling, fsynced, renamed into
// place, and the parent directory fsynced — so a reader (or a resumed
// run after a crash mid-write) never observes a partial file, and a
// machine that loses power right after Save still finds the new
// snapshot on disk. Without the syncs the rename is atomic in the
// filesystem's cache but the data (or the directory entry) can
// evaporate in a power cut, which is exactly the crash a checkpoint
// exists for.
func SaveCheckpoint(path string, c *Checkpoint) error {
	data, err := EncodeCheckpoint(c)
	if err != nil {
		return fmt.Errorf("resilience: encode checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resilience: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("resilience: publish checkpoint: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("resilience: sync checkpoint dir: %w", err)
	}
	return nil
}

// writeFileSync writes data and fsyncs it before closing, so the bytes
// are on disk before the rename can publish them.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync (some network mounts) degrade
// gracefully: the rename already happened, only the durability fence is
// weaker.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// LoadCheckpoint reads and validates a checkpoint file against the
// expected fingerprint. A missing file is (nil, nil) — nothing to
// resume; damage returns ErrCorrupt, a configuration mismatch
// ErrFingerprint.
func LoadCheckpoint(path, fingerprint string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("resilience: read checkpoint: %w", err)
	}
	c, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if c.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: checkpoint %q vs run %q", errFingerprint, c.Fingerprint, fingerprint)
	}
	return c, nil
}
