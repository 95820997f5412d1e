package darshan

// CombineSnapshots folds the job-end logs of one rank's successive process
// incarnations into a single per-rank log, as if one process had
// recorded the whole job. The failure scenario needs this: a rank that
// dies and is reborn produces two runtimes — the dead process's records
// up to the failure instant (which the simulator's failure oracle
// preserves; real Darshan would lose them with the process) and the
// reborn process's records from rejoin to job end. Merge cannot take
// both directly (its slot index is the rank), so incarnations are
// pre-combined here and the result takes the rank's slot.
//
// Records fold exactly as in the cross-rank Merge (recordFold), stamped
// with rank; DXT segments concatenate per record in incarnation order,
// which keeps per-record segments time-ordered because a later
// incarnation only records after the earlier one died. Nil logs are
// skipped, and a single live log is returned as is.
func CombineSnapshots(rank int, logs ...*Log) *Log {
	var live []*Log
	for _, l := range logs {
		if l != nil {
			live = append(live, l)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if len(live) == 1 {
		return live[0]
	}

	f := newRecordFold(live)
	f.NProcs = 1
	dxtIdx := make(map[uint64]int)
	for _, l := range live {
		f.add(rank, l)
		for i := range l.DXT {
			src := &l.DXT[i]
			j, seen := dxtIdx[src.ID]
			if !seen {
				j = len(f.DXT)
				dxtIdx[src.ID] = j
				f.DXT = append(f.DXT, DXTRecord{ID: src.ID})
			}
			dst := &f.DXT[j]
			dst.ReadSegs = append(dst.ReadSegs, src.ReadSegs...)
			dst.WriteSegs = append(dst.WriteSegs, src.WriteSegs...)
			dst.Dropped += src.Dropped
		}
	}
	f.finish()
	return f.Log
}
