package engine

// checkpointdir.go keeps an engine's checkpoint in a directory so engine
// state survives process crashes without replaying the stream from
// zero: durable state = the checkpoint + WAL replay from its stream
// offsets.
//
// The directory holds one file, MANIFEST.json: the engine checkpoint
// (the format Engine.Checkpoint writes, checkpoint.go) plus the save's
// sequence number and the applied stream offsets. Save writes it via
// temp-file-rename; the rename is the commit point, so a crash at any
// point leaves either the old checkpoint or the new one. A torn
// MANIFEST.json.tmp is ignored by Recover and replaced by the next Save.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// ErrNoCheckpoint is returned by Recover when the directory holds no
// checkpoint — the caller should start a fresh engine instead.
var ErrNoCheckpoint = errors.New("engine: no checkpoint in directory")

const manifestName = "MANIFEST.json"

// Checkpointer writes an engine's state into a checkpoint directory. It
// is not safe for concurrent use; callers serialize Save.
type Checkpointer struct {
	e   *Engine
	dir string
	seq int
}

// NewCheckpointer opens (creating if necessary) the checkpoint
// directory for e. The sequence number continues from an existing
// checkpoint.
func (e *Engine) NewCheckpointer(dir string) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: checkpointer: %w", err)
	}
	c := &Checkpointer{e: e, dir: dir}
	cp, err := readCheckpoint(dir)
	switch {
	case err == nil:
		c.seq = cp.Seq
	case !errors.Is(err, ErrNoCheckpoint):
		return nil, err
	}
	return c, nil
}

// readCheckpoint decodes dir's checkpoint file, or returns
// ErrNoCheckpoint when there is none.
func readCheckpoint(dir string) (*checkpointFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, fmt.Errorf("engine: read checkpoint: %w", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s corrupt: %w", manifestName, err)
	}
	return &cp, nil
}

// Seq returns the sequence number of the last completed Save (0 before
// the first).
func (c *Checkpointer) Seq() int { return c.seq }

// Save captures the engine's current state. offsets (per stream topic,
// per partition) record how far the caller's consumers had applied the
// durable log when the engine reached this state; Recover hands them
// back so ingestion resumes exactly there. The write is atomic — a
// crash anywhere leaves the previous checkpoint intact.
func (c *Checkpointer) Save(offsets map[string][]int64) error {
	seq := c.seq + 1
	var buf bytes.Buffer
	if err := c.e.writeCheckpoint(&buf, seq, offsets); err != nil {
		return err
	}
	if err := atomicWriteFile(filepath.Join(c.dir, manifestName), buf.Bytes()); err != nil {
		return fmt.Errorf("engine: checkpoint %s: %w", manifestName, err)
	}
	c.seq = seq
	if reg := c.e.Metrics(); reg != nil {
		reg.Gauge("seraph_checkpoint_bytes",
			"Size in bytes of the most recent checkpoint file.").Set(int64(buf.Len()))
		reg.Gauge("seraph_checkpoint_seq",
			"Sequence number of the most recent completed checkpoint.").Set(int64(seq))
	}
	return nil
}

// RecoveryInfo describes a completed Recover.
type RecoveryInfo struct {
	// Seq is the recovered checkpoint sequence number.
	Seq int
	// Offsets are the per-topic, per-partition applied offsets of the
	// checkpoint: ingestion must resume from exactly these positions (and
	// treat lower offsets as already applied) for exactly-once delivery.
	Offsets map[string][]int64
	// Duration is the wall time Recover spent (decode + warm-up).
	Duration time.Duration
}

// Recover rebuilds an engine from a checkpoint directory, with the
// usual silent warm-up (see Restore). Returns ErrNoCheckpoint when the
// directory has no checkpoint.
func Recover(dir string, sinkFor func(queryName string) Sink, extra ...Option) (*Engine, *RecoveryInfo, error) {
	start := time.Now()
	cp, err := readCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	e, err := restoreDecoded(cp, sinkFor, extra)
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{Seq: cp.Seq, Offsets: cp.Offsets, Duration: time.Since(start)}
	if reg := e.Metrics(); reg != nil {
		reg.Histogram("seraph_recovery_seconds",
			"Wall time to rebuild engine state from the checkpoint directory.").Observe(info.Duration)
	}
	return e, info, nil
}

// atomicWriteFile writes data via temp-file-rename, syncing before the
// rename so a crash cannot expose a partial file under the final name.
func atomicWriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
