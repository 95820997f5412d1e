package distributed

import (
	"fmt"

	"repro/internal/tf/tfdata"
)

// Plan is a job's run plan, fixed before any rank starts: which files each
// rank reads in which order over the whole job, and how many lockstep
// steps the job runs. Each rank's access order is a pure function of the
// file list, seed, epoch and rank (the clairvoyance Dryden et al. exploit),
// so the driver, the prefetch daemons, elastic recovery and the
// experiments all read it from here instead of re-deriving shards.
type Plan struct {
	// Seq[r] is rank r's whole-job file sequence: epoch e's shard of the
	// list reshuffled with seed shuffle+e, concatenated over epochs.
	Seq [][]string
	// ShardFiles[r] is rank r's per-epoch shard size.
	ShardFiles []int
	// Steps is the lockstep step count: the fewest full batches any rank's
	// sequence holds (at least one, the final partial batch, so tiny
	// shards still train).
	Steps int
}

// Shards shuffles paths with tf.data's seeded shuffle and deals element i
// of the shuffled order to shard i % n: shard r is exactly
// tfdata.FromFiles(paths).Shuffle(seed).Shard(n, r), for all n shards at
// the cost of one shuffle. The shards share one backing array, each
// capped at its own length.
func Shards(paths []string, seed int64, n int) [][]string {
	order := tfdata.ShuffleOrder(len(paths), seed)
	flat := make([]string, len(paths))
	out := make([][]string, n)
	off := 0
	for r := range out {
		k := tfdata.ShardLen(len(paths), n, r)
		shard := flat[off : off+k : off+k]
		for j := range shard {
			shard[j] = paths[order[r+j*n]]
		}
		out[r], off = shard, off+k
	}
	return out
}

// ShardPaths returns rank's shard of the list shuffled with seed: epoch 0
// of the plan's sequence for that rank.
func ShardPaths(paths []string, shuffle int64, ranks, rank int) []string {
	return Shards(paths, shuffle, ranks)[rank]
}

// NewPlan builds the run plan of a ranks-wide, epochs-long job (0 or 1 is
// one epoch) at the given per-rank batch size. Every epoch reshuffles the
// full list with its own seed, shuffle+e, and shards it across the ranks,
// so shard membership moves between ranks from epoch to epoch (tf.data's
// default reshuffle_each_iteration).
func NewPlan(paths []string, shuffle int64, ranks, epochs, batch int) (*Plan, error) {
	if ranks < 1 {
		return nil, fmt.Errorf("distributed: invalid rank count %d", ranks)
	}
	if batch < 1 {
		return nil, fmt.Errorf("distributed: invalid batch %d", batch)
	}
	epochs = max(epochs, 1)
	p := &Plan{Seq: make([][]string, ranks), ShardFiles: make([]int, ranks)}
	for r := range p.ShardFiles {
		n := tfdata.ShardLen(len(paths), ranks, r)
		if n == 0 {
			return nil, fmt.Errorf("distributed: rank %d of %d has an empty shard (%d files)", r, ranks, len(paths))
		}
		p.ShardFiles[r] = n
		if epochs > 1 {
			p.Seq[r] = make([]string, 0, n*epochs)
		}
	}
	for e := 0; e < epochs; e++ {
		for r, shard := range Shards(paths, shuffle+int64(e), ranks) {
			if epochs == 1 {
				p.Seq[r] = shard
			} else {
				p.Seq[r] = append(p.Seq[r], shard...)
			}
		}
	}
	p.Steps = minSteps(p.Seq, batch)
	return p, nil
}

// minSteps is the lockstep step count over the non-nil sequences.
func minSteps(seqs [][]string, batch int) int {
	steps := 0
	for _, seq := range seqs {
		if seq == nil {
			continue
		}
		if s := max(len(seq)/batch, 1); steps == 0 || s < steps {
			steps = s
		}
	}
	return steps
}

// Without is the elastic continuation after victim dies at the start of
// global step brk (steps 1..brk-1 committed; the survivors commit brk
// without its gradients). Each survivor keeps its own seq[brk*batch:] and
// takes a strided share of the victim's unconsumed seq[(brk-1)*batch:],
// dealt over the live ranks in rank order. The continuation's Seq is nil
// for the victim and its Steps is the continuation segment's lockstep
// step count; reshard is how many of the victim's files moved.
func (p *Plan) Without(victim, brk, batch int) (cont *Plan, reshard int) {
	vseq := p.Seq[victim]
	vrem := vseq[min((brk-1)*batch, len(vseq)):]
	live := len(p.Seq) - 1
	cont = &Plan{Seq: make([][]string, len(p.Seq))}
	idx := 0
	for r, seq := range p.Seq {
		if r == victim {
			continue
		}
		own := seq[min(brk*batch, len(seq)):]
		s := make([]string, 0, len(own)+len(vrem)/live+1)
		s = append(s, own...)
		for i := idx; i < len(vrem); i += live {
			s = append(s, vrem[i])
		}
		cont.Seq[r] = s
		idx++
	}
	cont.Steps = minSteps(cont.Seq, batch)
	return cont, len(vrem)
}
