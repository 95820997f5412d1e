package tfio

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tf"
)

// TFRecord container support. The paper's discussion (§VII) identifies
// sample containers as the standard fix for small-file I/O: "One way to
// improve bandwidth performance is to use data containers such as TFRecord
// that contains multiple data samples." This writes the TFRecord wire
// format's framing (length-prefixed records with CRC fields; writes are
// counted, so only the field sizes matter) over the simulated VFS, plus a
// shard writer that packs a file population into containers — the
// preparation step the paper notes "still requires a separate
// preprocessing step with I/O for each sample."

// tfrecordHeaderLen is the per-record framing: 8-byte length, 4-byte
// length CRC, then payload, then 4-byte payload CRC.
const tfrecordHeaderLen = 8 + 4
const tfrecordFooterLen = 4

// TFRecordWriter appends framed records to a container file through the
// buffered WritableFile path.
type TFRecordWriter struct {
	w       *WritableFile
	Records int64
	Bytes   int64
}

// NewTFRecordWriter creates the container file.
func NewTFRecordWriter(t *sim.Thread, env *tf.Env, path string) (*TFRecordWriter, error) {
	w, err := NewWritableFile(t, env, path)
	if err != nil {
		return nil, err
	}
	return &TFRecordWriter{w: w}, nil
}

// WriteRecord appends one framed record of the given payload as three
// fwrites: header, payload, footer. Writes are counted, not stored (sizes
// drive all simulated costs), so the framing comes from the shared
// zeroChunk and no CRC is computed.
func (tw *TFRecordWriter) WriteRecord(t *sim.Thread, payload []byte) error {
	if err := tw.w.Append(t, zeroChunk[:tfrecordHeaderLen]); err != nil {
		return err
	}
	if err := tw.w.Append(t, payload); err != nil {
		return err
	}
	if err := tw.w.Append(t, zeroChunk[:tfrecordFooterLen]); err != nil {
		return err
	}
	tw.Records++
	tw.Bytes += int64(len(payload)) + tfrecordHeaderLen + tfrecordFooterLen
	return nil
}

// Close flushes and closes the container.
func (tw *TFRecordWriter) Close(t *sim.Thread) error { return tw.w.Close(t) }

// TFRecordReadBuf is the shard scanner's buffer size (TF uses large input
// buffers for sequential container scans).
const TFRecordReadBuf = 8 << 20

// ShardIndex describes one container shard: its path, byte size and the
// number of samples packed into it.
type ShardIndex struct {
	Path    string
	Bytes   int64
	Samples int
}

// ScanShard reads the whole shard with large sequential preads, returning
// the bytes read. This is the container equivalent of the per-file
// ReadFile loop, and shares it.
func ScanShard(t *sim.Thread, env *tf.Env, idx *ShardIndex) (int64, error) {
	tm := env.Trace(t, "TFRecordDataset")
	defer tm.End(t)
	return preadFile(t, env, idx.Path, TFRecordReadBuf)
}

// BuildTFRecordShards packs sample sizes into container shards of roughly
// shardBytes each, writing them under dir. It performs the real
// (simulated) I/O of the conversion: every sample is read from its source
// file and appended to the current shard.
func BuildTFRecordShards(t *sim.Thread, env *tf.Env, samples []string, dir string, shardBytes int64) ([]*ShardIndex, error) {
	var shards []*ShardIndex
	var cur *TFRecordWriter
	var curIdx *ShardIndex
	// Payloads come from the read-only zero chunk; only a sample larger
	// than it gets a buffer of its own.
	payload := zeroChunk[:]
	openShard := func() error {
		path := fmt.Sprintf("%s/shard-%05d.tfrecord", dir, len(shards))
		w, err := NewTFRecordWriter(t, env, path)
		if err != nil {
			return err
		}
		cur = w
		curIdx = &ShardIndex{Path: path}
		return nil
	}
	closeShard := func() error {
		if cur == nil {
			return nil
		}
		if err := cur.Close(t); err != nil {
			return err
		}
		curIdx.Bytes = cur.Bytes
		curIdx.Samples = int(cur.Records)
		shards = append(shards, curIdx)
		cur, curIdx = nil, nil
		return nil
	}
	for _, src := range samples {
		n, err := ReadFile(t, env, src)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			if err := openShard(); err != nil {
				return nil, err
			}
		}
		if int64(len(payload)) < n {
			payload = make([]byte, n)
		}
		if err := cur.WriteRecord(t, payload[:n]); err != nil {
			return nil, err
		}
		if cur.Bytes >= shardBytes {
			if err := closeShard(); err != nil {
				return nil, err
			}
		}
	}
	if err := closeShard(); err != nil {
		return nil, err
	}
	return shards, nil
}
