package distributed

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/tf/tfdata"
)

func planPaths(n int) []string {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = fmt.Sprintf("/pfs/f%02d", i)
	}
	return paths
}

// TestShardsMatchTfdataShard: one shuffle dealt round-robin is exactly
// tf.data's shuffle-then-shard for every shard index.
func TestShardsMatchTfdataShard(t *testing.T) {
	paths := planPaths(37)
	for _, n := range []int{1, 3, 4, 8} {
		shards := Shards(paths, testSeed, n)
		for r := 0; r < n; r++ {
			want := tfdata.FromFiles(nil, paths).Shuffle(testSeed).Shard(n, r).Paths()
			if !reflect.DeepEqual(shards[r], want) {
				t.Fatalf("n=%d shard %d != Shuffle(seed).Shard(%d, %d)", n, r, n, r)
			}
		}
	}
}

// TestPlanEpochZeroIsShardPaths pins the identity that keeps prefetch
// schedules compatible with the plain shard order: a one-epoch plan's
// sequence is exactly ShardPaths, and the shards are disjoint and cover
// the paths.
func TestPlanEpochZeroIsShardPaths(t *testing.T) {
	paths := planPaths(40)
	for ranks := 1; ranks <= 8; ranks++ {
		p, err := NewPlan(paths, testSeed, ranks, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for r := 0; r < ranks; r++ {
			if want := ShardPaths(paths, testSeed, ranks, r); !reflect.DeepEqual(p.Seq[r], want) {
				t.Fatalf("ranks=%d rank=%d: one-epoch sequence != ShardPaths", ranks, r)
			}
			if p.ShardFiles[r] != len(p.Seq[r]) {
				t.Fatalf("ranks=%d rank=%d: ShardFiles %d, sequence %d", ranks, r, p.ShardFiles[r], len(p.Seq[r]))
			}
			for _, f := range p.Seq[r] {
				seen[f]++
			}
		}
		if len(seen) != len(paths) {
			t.Fatalf("ranks=%d: shards cover %d of %d paths", ranks, len(seen), len(paths))
		}
		for f, n := range seen {
			if n != 1 {
				t.Fatalf("ranks=%d: %s in %d shards", ranks, f, n)
			}
		}
	}
}

// TestPlanEpochsReshuffle: successive epochs of a one-rank plan visit the
// same file set in different orders, and multi-rank epochs move files
// between ranks (the overlap peer serving exploits) while each epoch's
// shards still partition the full list. ShardFiles stays the per-epoch
// shard and Steps counts both epochs' batches.
func TestPlanEpochsReshuffle(t *testing.T) {
	paths := planPaths(64)
	set := func(ps []string) map[string]bool {
		m := make(map[string]bool, len(ps))
		for _, p := range ps {
			m[p] = true
		}
		return m
	}
	one, err := NewPlan(paths, testSeed, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := one.Seq[0]
	ep1, ep2 := s[:len(paths)], s[len(paths):]
	if !reflect.DeepEqual(set(ep1), set(ep2)) {
		t.Fatal("one-rank epochs cover different file sets")
	}
	if reflect.DeepEqual(ep1, ep2) {
		t.Fatal("epoch 2 repeats epoch 1's order (no reshuffle)")
	}
	if one.ShardFiles[0] != len(paths) || one.Steps != 2*len(paths)/8 {
		t.Fatalf("one-rank plan: ShardFiles %d Steps %d", one.ShardFiles[0], one.Steps)
	}
	two, err := NewPlan(paths, testSeed, 2, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := two.Seq[0], two.Seq[1]
	n := len(paths) / 2
	for e := 0; e < 2; e++ {
		s0, s1 := set(r0[e*n:(e+1)*n]), set(r1[e*n:(e+1)*n])
		for p := range s0 {
			if s1[p] {
				t.Fatalf("epoch %d shards overlap on %s", e, p)
			}
		}
		if len(s0)+len(s1) != len(paths) {
			t.Fatalf("epoch %d shards do not cover the file list", e)
		}
	}
	if reflect.DeepEqual(set(r0[:n]), set(r0[n:])) {
		t.Fatal("rank 0's shard membership never changes across epochs")
	}
}

// TestPlanRejectsEmptyShard: more ranks than files leaves a rank idle,
// which a lockstep job cannot run.
func TestPlanRejectsEmptyShard(t *testing.T) {
	if _, err := NewPlan(planPaths(3), testSeed, 4, 1, 1); err == nil {
		t.Fatal("plan with an empty shard accepted")
	}
}

// TestPlanWithoutConservesWork: the elastic continuation hands each of
// the victim's unconsumed files to exactly one survivor, keeps every
// survivor's own remaining files in order, and reports the moved count.
func TestPlanWithoutConservesWork(t *testing.T) {
	const ranks, batch, brk, victim = 4, 4, 3, 1
	p, err := NewPlan(planPaths(70), testSeed, ranks, 2, batch)
	if err != nil {
		t.Fatal(err)
	}
	cont, reshard := p.Without(victim, brk, batch)
	if cont.Seq[victim] != nil {
		t.Fatal("the victim has a continuation sequence")
	}
	vrem := p.Seq[victim][(brk-1)*batch:]
	if reshard != len(vrem) {
		t.Fatalf("reshard = %d, victim has %d files left", reshard, len(vrem))
	}
	got := map[string]int{}
	for r, seq := range cont.Seq {
		if r == victim {
			continue
		}
		own := p.Seq[r][brk*batch:]
		if !reflect.DeepEqual(seq[:len(own)], own) {
			t.Fatalf("rank %d lost its own remaining order", r)
		}
		for _, f := range seq[len(own):] {
			got[f]++
		}
		if s := len(seq) / batch; s < cont.Steps {
			t.Fatalf("rank %d holds %d steps, continuation runs %d", r, s, cont.Steps)
		}
	}
	want := map[string]int{}
	for _, f := range vrem {
		want[f]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("survivors absorbed %v, victim left %v", got, want)
	}
}
