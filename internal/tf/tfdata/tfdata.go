// Package tfdata reimplements the tf.data input pipeline machinery the
// paper's workloads are built on: a file-list source, parallel map with
// num_parallel_calls (including AUTOTUNE), batching, and prefetching into
// a bounded buffer that overlaps input preprocessing with accelerator
// compute. Pipeline stages run as simulated threads, so threading and
// prefetch parameters have the same performance consequences the paper
// measures (Figs. 7b and 11a).
//
// Zero-materialization contract: samples flowing through the pipeline are
// summarized by their byte counts (Sample.Bytes); the map functions'
// whole-file reads pass a nil buffer, so payload bytes are never
// materialized unless the environment's VerifyContent mode is on. Timing,
// counters and Darshan records are identical in both modes.
package tfdata

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/tf"
)

// AUTOTUNE requests automatic parallelism selection, like
// tf.data.experimental.AUTOTUNE.
const AUTOTUNE = -1

// Sample is one mapped element flowing through the pipeline.
type Sample struct {
	Path  string
	Bytes int64
}

// Batch is a group of samples delivered to the training loop.
type Batch struct {
	Samples []Sample
	Bytes   int64
	Index   int
}

// MapFunc is the user capture function of tf.data.map: it performs the
// element's I/O and preprocessing on the calling pipeline thread.
type MapFunc func(t *sim.Thread, env *tf.Env, path string) (Sample, error)

// Dataset is a declarative pipeline description. Stage setters return the
// dataset for chaining, mirroring the tf.data fluent style.
type Dataset struct {
	env           *tf.Env
	paths         []string
	mapFn         MapFunc
	parallelCalls int
	batchSize     int
	prefetchDepth int
	prefetchSet   bool
}

// batchCopyBytesPerSec models batch-assembly memcpy cost.
const batchCopyBytesPerSec = 8e9

// FromFiles lists the dataset's files in the given order.
func FromFiles(env *tf.Env, paths []string) *Dataset {
	return &Dataset{
		env:           env,
		paths:         append([]string(nil), paths...),
		parallelCalls: 1,
		batchSize:     1,
	}
}

// Shuffle permutes the file order deterministically from seed (the
// list_files shuffle; the paper's datasets are consumed in shuffled order
// while living contiguously on disk).
func (d *Dataset) Shuffle(seed int64) *Dataset {
	seededShuffle(len(d.paths), seed, func(i, j int) {
		d.paths[i], d.paths[j] = d.paths[j], d.paths[i]
	})
	return d
}

// ShuffleOrder returns the permutation Shuffle(seed) applies to an
// n-element dataset: element i of the shuffled order is element
// ShuffleOrder(n, seed)[i] of the original. Drivers that cut one shuffle
// into many shards use it to gather each shard without first copying and
// shuffling the paths themselves.
func ShuffleOrder(n int, seed int64) []int32 {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	seededShuffle(n, seed, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// seededShuffle permutes n elements through swap, deterministically from
// seed: the one shuffle Shuffle and ShuffleOrder share.
func seededShuffle(n int, seed int64, swap func(i, j int)) {
	rand.New(rand.NewSource(seed)).Shuffle(n, swap)
}

// checkShardArgs panics on arguments tf.data would reject at graph
// construction, shared by Shard and ShardLen.
func checkShardArgs(numShards, index int) {
	if numShards < 1 || index < 0 || index >= numShards {
		panic(fmt.Sprintf("tfdata: invalid shard(%d, %d)", numShards, index))
	}
}

// ShardLen returns the number of elements Shard(numShards, index) keeps
// from an n-element dataset — the single source of truth drivers use to
// size per-rank work without building the dataset first. Arguments Shard
// would reject panic here too.
func ShardLen(n, numShards, index int) int {
	checkShardArgs(numShards, index)
	if index >= n {
		return 0
	}
	return (n - index + numShards - 1) / numShards
}

// BatchCount returns the number of batches Batch(batch) yields over n
// elements: full batches plus the final partial one, matching the
// batcher's flush. Drivers use it to size expected deliveries without
// building the dataset. An invalid batch size panics, like Batch would at
// iterator time.
func BatchCount(n, batch int) int {
	if batch < 1 {
		panic(fmt.Sprintf("tfdata: invalid batch %d", batch))
	}
	if n <= 0 {
		return 0
	}
	return (n + batch - 1) / batch
}

// Shard keeps every numShards-th element starting at index — tf.data's
// Dataset.shard(num_shards, index) semantics: element i survives iff
// i % numShards == index. Data-parallel ranks shard the same shuffled
// file order (same seed on every rank) so the shards are disjoint and
// jointly cover the dataset. Invalid arguments panic, like tf.data's
// graph-construction-time errors.
func (d *Dataset) Shard(numShards, index int) *Dataset {
	checkShardArgs(numShards, index)
	if numShards == 1 {
		return d
	}
	kept := make([]string, 0, ShardLen(len(d.paths), numShards, index))
	for i := index; i < len(d.paths); i += numShards {
		kept = append(kept, d.paths[i])
	}
	d.paths = kept
	return d
}

// Map sets the capture function and its parallelism (num_parallel_calls;
// AUTOTUNE resolves to the host core count at iterator creation).
func (d *Dataset) Map(fn MapFunc, numParallelCalls int) *Dataset {
	d.mapFn = fn
	d.parallelCalls = numParallelCalls
	return d
}

// Batch groups n samples per delivered batch.
func (d *Dataset) Batch(n int) *Dataset {
	d.batchSize = n
	return d
}

// Prefetch buffers up to n ready batches ahead of the consumer. An
// explicit Prefetch(0) disables batch-level buffering entirely (delivery
// becomes a rendezvous), serializing input production with training — the
// configuration the paper's prefetch-10 setting exists to avoid.
func (d *Dataset) Prefetch(n int) *Dataset {
	d.prefetchDepth = n
	d.prefetchSet = true
	return d
}

// Size returns the number of files in the dataset.
func (d *Dataset) Size() int { return len(d.paths) }

// Paths returns the (possibly shuffled) file order.
func (d *Dataset) Paths() []string { return d.paths }

// Iterator executes the pipeline: map workers and a batcher are spawned as
// simulated threads; the returned iterator delivers batches.
type Iterator struct {
	d       *Dataset
	env     *tf.Env
	next    int
	cancel  bool
	mapOut  *sim.Chan[Sample]
	out     *sim.Chan[Batch]
	workers int
	live    int

	// Stats observed by the pipeline analyzer.
	SamplesOut int64
	BatchesOut int64
	BytesOut   int64
	WaitNs     int64 // consumer time blocked in Next
	Workers    int
}

// MakeIterator resolves AUTOTUNE, spawns the pipeline threads and returns
// the iterator. It must be called from a simulated thread context (the
// spawning itself costs no virtual time).
func (d *Dataset) MakeIterator() (*Iterator, error) {
	if d.mapFn == nil {
		return nil, fmt.Errorf("tfdata: dataset has no map function")
	}
	workers := d.parallelCalls
	if workers == AUTOTUNE {
		workers = d.env.CPU.Cores()
	}
	if workers < 1 {
		return nil, fmt.Errorf("tfdata: invalid num_parallel_calls %d", d.parallelCalls)
	}
	depth := d.prefetchDepth
	if depth < 1 && !d.prefetchSet {
		depth = 1 // unconfigured pipelines still hand one batch ahead
	}
	if depth < 0 {
		depth = 0
	}
	it := &Iterator{
		d:       d,
		env:     d.env,
		mapOut:  sim.NewChan[Sample](workers),
		out:     sim.NewChan[Batch](depth),
		workers: workers,
		live:    workers,
		Workers: workers,
	}
	for w := 0; w < workers; w++ {
		d.env.K.Spawn(fmt.Sprintf("tf_data_map_%d", w), it.mapWorker)
	}
	d.env.K.Spawn("tf_data_batch", it.batcher)
	return it, nil
}

// nextPath hands out source elements; pipeline threads run one at a time
// in the simulation so no lock is needed, but the method mirrors the
// serialized source of tf.data.
func (it *Iterator) nextPath() (string, bool) {
	if it.cancel || it.next >= len(it.d.paths) {
		return "", false
	}
	p := it.d.paths[it.next]
	it.next++
	return p, true
}

func (it *Iterator) mapWorker(t *sim.Thread) {
	for {
		path, ok := it.nextPath()
		if !ok {
			break
		}
		tm := it.env.Trace(t, "ParallelMapProduce")
		s, err := it.d.mapFn(t, it.env, path)
		tm.End(t)
		if err != nil {
			// tf.data surfaces map errors at GetNext; the simulated
			// pipelines treat them as fatal configuration mistakes.
			panic(fmt.Sprintf("tfdata: map %s: %v", path, err))
		}
		it.mapOut.Send(t, s)
	}
	it.live--
	if it.live == 0 {
		it.mapOut.Close(t)
	}
}

func (it *Iterator) batcher(t *sim.Thread) {
	var cur []Sample
	var bytes int64
	index := 0
	flush := func() {
		if len(cur) == 0 || it.cancel {
			cur, bytes = nil, 0
			return
		}
		if bytes > 0 {
			t.Sleep(sim.Duration(float64(bytes) / batchCopyBytesPerSec * 1e9))
		}
		it.out.Send(t, Batch{Samples: cur, Bytes: bytes, Index: index})
		index++
		cur, bytes = nil, 0
	}
	for {
		s, ok := it.mapOut.Recv(t)
		if !ok {
			break
		}
		if it.cancel {
			continue // drain so blocked workers can exit
		}
		if cur == nil {
			// A batch starts: allocate it at its full size.
			cur = make([]Sample, 0, max(it.d.batchSize, 1))
		}
		cur = append(cur, s)
		bytes += s.Bytes
		if len(cur) == it.d.batchSize {
			flush()
		}
	}
	flush() // partial final batch
	it.out.Close(t)
}

// Next delivers the next batch, blocking until the pipeline produces one.
// ok is false when the dataset is exhausted.
func (it *Iterator) Next(t *sim.Thread) (Batch, bool) {
	tm := it.env.Trace(t, "IteratorGetNext")
	start := t.Now()
	b, ok := it.out.Recv(t)
	it.WaitNs += t.Now() - start
	tm.End(t)
	if ok {
		it.BatchesOut++
		it.SamplesOut += int64(len(b.Samples))
		it.BytesOut += b.Bytes
	}
	return b, ok
}

// Close cancels the pipeline and drains it so all stage threads exit.
// Safe to call after exhaustion; must be called when abandoning the
// iterator early (steps < available batches).
func (it *Iterator) Close(t *sim.Thread) {
	it.cancel = true
	for {
		if _, ok := it.out.Recv(t); !ok {
			return
		}
	}
}
