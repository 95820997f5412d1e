package tfio

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sim"
	"repro/internal/tf"
)

// Variable is one model tensor to checkpoint.
type Variable struct {
	Name  string
	Bytes int64
}

// CheckpointChunk is the fwrite granularity of the snapshot writer: each
// tensor's payload is appended in chunks of this size. With AlexNet's ~16
// tensors (~233MB of float32 parameters) a checkpoint produces ~140 fwrite
// calls — ten per-step checkpoints produce the ~1,400 calls of the paper's
// Fig. 6.
const CheckpointChunk = 2 << 20

// zeroChunk is the source of every checkpoint header and payload chunk.
// Writes are counted, not stored, so one shared chunk serves every call.
// It is read-only: nothing may ever write to it.
var zeroChunk [CheckpointChunk]byte

// checkpointHeaderLen is the size of the header written before each tensor.
const checkpointHeaderLen = 256

// CheckpointResult summarizes one written checkpoint.
type CheckpointResult struct {
	Path       string
	Bytes      int64
	FwriteOps  int64
	DurationNs int64
}

// WriteCheckpoint saves variables in a TF-snapshot-like layout: a data
// file holding each tensor (small header + chunked payload) and an index
// file mapping tensor names to offsets. All writes go through the buffered
// WritableFile, i.e. STDIO fwrite.
func WriteCheckpoint(t *sim.Thread, env *tf.Env, prefix string, vars []Variable) (CheckpointResult, error) {
	tm := env.Trace(t, "SaveV2")
	defer tm.End(t)
	start := t.Now()

	dataPath := prefix + ".data-00000-of-00001"
	data, err := NewWritableFile(t, env, dataPath)
	if err != nil {
		return CheckpointResult{}, err
	}
	var total int64
	var offsets []int64
	for _, v := range vars {
		offsets = append(offsets, total)
		if err := data.Append(t, zeroChunk[:checkpointHeaderLen]); err != nil {
			return CheckpointResult{}, err
		}
		total += checkpointHeaderLen
		remaining := v.Bytes
		for remaining > 0 {
			n := min(remaining, CheckpointChunk)
			if err := data.Append(t, zeroChunk[:n]); err != nil {
				return CheckpointResult{}, err
			}
			total += n
			remaining -= n
		}
	}
	if err := data.Close(t); err != nil {
		return CheckpointResult{}, err
	}

	// The index is accumulated in memory and written as one table, as
	// TF's BundleWriter does at Finish().
	indexPath := prefix + ".index"
	index, err := NewWritableFile(t, env, indexPath)
	if err != nil {
		return CheckpointResult{}, err
	}
	table := make([]byte, 0, 64*len(vars))
	for i, v := range vars {
		table = append(table, v.Name...)
		table = binary.LittleEndian.AppendUint64(table, uint64(offsets[i]))
		table = binary.LittleEndian.AppendUint64(table, uint64(v.Bytes))
	}
	if err := index.Append(t, table); err != nil {
		return CheckpointResult{}, err
	}
	total += int64(len(table))
	if err := index.Close(t); err != nil {
		return CheckpointResult{}, err
	}

	return CheckpointResult{
		Path:       prefix,
		Bytes:      total,
		FwriteOps:  data.Appends + index.Appends,
		DurationNs: t.Now() - start,
	}, nil
}

// RestoreCheckpoint reads a checkpoint back (index then data), used to
// validate the writer and to model restart-from-checkpoint workloads.
// The reads go through the buffered STDIO stream layer, mirroring the
// writer: a checkpoint round-trip is fully visible in Darshan's STDIO
// module and invisible to its POSIX module — the same asymmetry the
// paper's Fig. 6 shows for the write side.
func RestoreCheckpoint(t *sim.Thread, env *tf.Env, prefix string, vars []Variable) (int64, error) {
	tm := env.Trace(t, "RestoreV2")
	defer tm.End(t)
	n1, err := ReadFileBuffered(t, env, prefix+".index")
	if err != nil {
		return 0, fmt.Errorf("tfio: restore: %w", err)
	}
	n2, err := ReadFileBuffered(t, env, prefix+".data-00000-of-00001")
	if err != nil {
		return 0, fmt.Errorf("tfio: restore: %w", err)
	}
	return n1 + n2, nil
}
