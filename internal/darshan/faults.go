package darshan

// FaultCounters is the runtime-side tally of transient-fault activity
// behind a log: injected I/O errors observed by the process, policy
// retries/timeouts, and the simulated time spent backing off. It rides on
// Log (Log.Faults) as a side channel only — the v321 wire format's
// POSIX/STDIO counter enums are untouched, so serialized logs (and the
// committed goldens over them) are byte-identical with or without faults
// recorded here. Decoded logs carry zero FaultCounters.
type FaultCounters struct {
	Faults    int64 // transient I/O errors observed by guarded reads
	Retries   int64 // reads reissued by the retry policy
	Giveups   int64 // reads abandoned after exhausting the retry budget
	Timeouts  int64 // operations that overran the per-op deadline
	BackoffNs int64 // simulated time spent in retry backoff
}

// Zero reports whether no fault activity was recorded.
func (f FaultCounters) Zero() bool { return f == FaultCounters{} }

// Add accumulates o into f.
func (f *FaultCounters) Add(o FaultCounters) {
	f.Faults += o.Faults
	f.Retries += o.Retries
	f.Giveups += o.Giveups
	f.Timeouts += o.Timeouts
	f.BackoffNs += o.BackoffNs
}
