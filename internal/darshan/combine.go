package darshan

// CombineSnapshots folds the snapshots of one rank's successive process
// incarnations into a single per-rank snapshot, as if one process had
// recorded the whole job. The failure scenario needs this: a rank that
// dies and is reborn produces two runtimes — the dead process's records
// up to the failure instant (which the simulator's failure oracle
// preserves; real Darshan would lose them with the process) and the
// reborn process's records from rejoin to job end. Merge cannot take
// both directly (its snapshot index is the rank and NProcs counts
// snapshots), so incarnations are pre-combined here and the result takes
// the rank's slot.
//
// Counters fold with the same per-class semantics as the cross-rank
// Merge (sums, watermarks, earliest/latest timestamps, re-ranked access
// tables); DXT segments concatenate in incarnation order, which keeps
// per-record segments time-ordered because a later incarnation only
// records after the earlier one died. Nil snapshots are skipped. Records
// keep their stamped Rank — incarnations of one rank agree on it.
func CombineSnapshots(snaps ...*Snapshot) *Snapshot {
	var live []*Snapshot
	for _, s := range snaps {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}

	out := &Snapshot{Names: make(map[uint64]string)}
	posixIdx := make(map[uint64]int)
	stdioIdx := make(map[uint64]int)
	dxtIdx := make(map[uint64]int)

	for _, snap := range live {
		if snap.Time > out.Time {
			out.Time = snap.Time
		}
		out.Faults.Add(snap.Faults)
		for id, name := range snap.Names {
			out.Names[id] = name
		}
		for i := range snap.Posix {
			src := &snap.Posix[i]
			j, seen := posixIdx[src.ID]
			if !seen {
				j = len(out.Posix)
				posixIdx[src.ID] = j
				out.Posix = append(out.Posix, PosixRecord{ID: src.ID, Rank: src.Rank})
			}
			foldPosixCounters(&out.Posix[j], src)
		}
		for i := range snap.Stdio {
			src := &snap.Stdio[i]
			j, seen := stdioIdx[src.ID]
			if !seen {
				j = len(out.Stdio)
				stdioIdx[src.ID] = j
				out.Stdio = append(out.Stdio, StdioRecord{ID: src.ID, Rank: src.Rank})
			}
			foldStdioCounters(&out.Stdio[j], src)
		}
		for i := range snap.DXT {
			src := &snap.DXT[i]
			j, seen := dxtIdx[src.ID]
			if !seen {
				j = len(out.DXT)
				dxtIdx[src.ID] = j
				out.DXT = append(out.DXT, DXTRecord{ID: src.ID})
			}
			dst := &out.DXT[j]
			dst.ReadSegs = append(dst.ReadSegs, src.ReadSegs...)
			dst.WriteSegs = append(dst.WriteSegs, src.WriteSegs...)
			dst.Dropped += src.Dropped
		}
	}

	finalizeAccessPosix(out.Posix)
	return out
}
