package tfdata

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func pathList(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/data/f-%03d", i)
	}
	return out
}

func TestShardDisjointCover(t *testing.T) {
	paths := pathList(10)
	var union []string
	for rank := 0; rank < 4; rank++ {
		shard := FromFiles(nil, paths).Shard(4, rank).Paths()
		// Rank r gets elements r, r+4, r+8, ...
		for i, p := range shard {
			if want := paths[rank+4*i]; p != want {
				t.Fatalf("rank %d shard[%d] = %s, want %s", rank, i, p, want)
			}
		}
		if got := ShardLen(len(paths), 4, rank); got != len(shard) {
			t.Fatalf("ShardLen(10,4,%d) = %d, Shard kept %d", rank, got, len(shard))
		}
		union = append(union, shard...)
	}
	sort.Strings(union)
	sorted := append([]string(nil), paths...)
	sort.Strings(sorted)
	if !reflect.DeepEqual(union, sorted) {
		t.Fatalf("shards do not cover the dataset: %v", union)
	}
}

func TestShardSingleIsIdentity(t *testing.T) {
	paths := pathList(7)
	got := FromFiles(nil, paths).Shard(1, 0).Paths()
	if !reflect.DeepEqual(got, paths) {
		t.Fatalf("shard(1,0) changed the order: %v", got)
	}
}

func TestShardInvalidArgsPanic(t *testing.T) {
	for _, args := range [][2]int{{0, 0}, {4, -1}, {4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shard(%d,%d) did not panic", args[0], args[1])
				}
			}()
			FromFiles(nil, pathList(4)).Shard(args[0], args[1])
		}()
	}
}

func TestShuffleOrderMatchesShuffle(t *testing.T) {
	paths := pathList(23)
	order := ShuffleOrder(len(paths), 7)
	got := make([]string, len(order))
	for i, j := range order {
		got[i] = paths[j]
	}
	if want := FromFiles(nil, paths).Shuffle(7).Paths(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ShuffleOrder gathers %v, Shuffle gives %v", got, want)
	}
}
