// Package atomicio provides crash-safe file replacement: bytes are
// streamed to a temporary file in the destination directory, fsynced, and
// renamed over the target, so readers never observe a torn or truncated
// file and an interrupted writer leaves the previous contents intact.
//
// It exists so every durable artifact — model files, training
// checkpoints, session snapshots, partition and replication markers —
// shares one write path with one fault-injection story.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tsppr/internal/faultinject"
)

// WriteFile streams fn into a temp file next to path, fsyncs it, and
// renames it over path. On any error the temp file is removed and the
// existing file at path is left untouched. When point is non-empty the
// write stream passes through that fault-injection point, so tests can
// simulate full disks, kills mid-write, and silent corruption.
func WriteFile(path, point string, fn func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var w io.Writer = tmp
	if point != "" {
		w = faultinject.WrapWriter(point, tmp)
	}
	if err := fn(w); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	tmp = nil // renamed away; nothing to clean up
	// Best-effort directory sync so the rename itself is durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
