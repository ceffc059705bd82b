package distnet

import (
	"fmt"
	"os"
	"path/filepath"

	"distme/internal/bmat"
	"distme/internal/storage"
)

// Per-column checkpointing: each completed (p,q) column's reply — its C
// blocks, the R partials already folded — is persisted through
// internal/storage (chunked, CRC-checked) under its column index, so a
// driver that crashes and restarts re-ships and recomputes only the
// unfinished columns. A manifest binds the directory to one job geometry; a
// corrupt or truncated checkpoint file (the crash may have interrupted a
// write) fails storage's checksums and is simply recomputed.

// checkpointManifest is the directory's job fingerprint.
const checkpointManifest = "manifest"

type checkpointer struct {
	dir string
}

// ensureManifest creates the checkpoint directory and manifest on first
// use, and on resume verifies the directory belongs to this job. The
// fingerprint is geometry only, so a job may resume under the other transfer
// mode: a column's product does not depend on how its slices arrived.
// DMECKPT1 directories held one file per cuboid and DMECKPT2 ones columns
// computed without a fused multiply-add; both are refused, so a resume never
// folds another arithmetic's columns into this product.
func (c *checkpointer) ensureManifest(job *cuboidJob, columns int) error {
	want := fmt.Sprintf("DMECKPT3 a=%dx%d b=%dx%d bs=%d p=%d q=%d r=%d jobs=%d\n",
		job.rows, job.inner, job.inner, job.cols, job.blockSize, job.params.P, job.params.Q, job.params.R, columns)
	path := filepath.Join(c.dir, checkpointManifest)
	if data, err := os.ReadFile(path); err == nil {
		if string(data) != want {
			return fmt.Errorf("distnet: checkpoint dir %s holds a different job (%q)", c.dir, string(data))
		}
		return nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("distnet: checkpoint dir: %w", err)
	}
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		return fmt.Errorf("distnet: checkpoint manifest: %w", err)
	}
	return nil
}

func (c *checkpointer) path(idx int) string {
	return filepath.Join(c.dir, fmt.Sprintf("column-%05d.dmeb", idx))
}

// load returns column idx's checkpointed reply, or ok=false when it is
// absent, corrupt, or from a different geometry — any of which means the
// column is recomputed. Damaged files are removed so the fresh result can
// take their place.
func (c *checkpointer) load(idx, cRows, cCols, blockSize int) (*multiplyReply, bool) {
	path := c.path(idx)
	m, err := storage.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			os.Remove(path)
		}
		return nil, false
	}
	if m.Rows != cRows || m.Cols != cCols || m.BlockSize != blockSize {
		os.Remove(path)
		return nil, false
	}
	reply := &multiplyReply{}
	for _, k := range m.Keys() {
		reply.CBlocks = append(reply.CBlocks, blockRec{Key: k, Block: m.Block(k.I, k.J)})
	}
	return reply, true
}

// store persists column idx's reply. The write goes to a temp file first
// and renames into place, so a crash mid-write leaves either nothing or a
// file storage's checksums will reject — never a silently-wrong
// checkpoint. Checkpoint I/O failures are deliberately non-fatal: the
// multiply's correctness never depends on the checkpoint.
func (c *checkpointer) store(idx int, reply *multiplyReply, cRows, cCols, blockSize int) {
	m := bmat.New(cRows, cCols, blockSize)
	for _, rec := range reply.CBlocks {
		m.SetBlock(rec.Key.I, rec.Key.J, denseOf(rec.Block))
	}
	tmp := c.path(idx) + ".tmp"
	if err := storage.WriteFile(tmp, m); err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, c.path(idx)); err != nil {
		os.Remove(tmp)
	}
}
