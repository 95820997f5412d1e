package core

import "fmt"

// AutoTuner hill-climbs an input-pipeline parameter (num_parallel_calls)
// on tf-Darshan's measured bandwidth. The paper's discussion (§VII) frames
// exactly this opportunity: "TensorFlow already uses auto-tuning
// extensively ... The information from tf-Darshan has the potential of
// improving this process with I/O specific information." The tuner
// encodes the two case-study outcomes: more threads help latency-bound
// small-file corpora (ImageNet on Lustre, Fig. 7b) and hurt seek-bound
// large-file corpora (malware on HDD, Fig. 11a), so the right setting
// must be measured, not guessed.
//
// The walk is a two-phase hill-climb: double while bandwidth keeps
// improving, and on the first regression (or a boundary bounce) reverse
// from the best-known setting and halve while bandwidth holds ground —
// so a tuner started above the optimum (the HDD case, e.g. start=8)
// actually probes 4/2/1 instead of settling where it began. The second
// regression reverts to the best observation and settles.
type AutoTuner struct {
	// Min and Max bound the candidate thread counts.
	Min, Max int

	current   int
	direction int // +1 growing, -1 shrinking
	lastBW    float64
	armed     bool // a positive-bandwidth baseline has been observed
	reversals int  // direction flips so far; the walk settles on the second regression
	settled   bool

	// History records every observation.
	History []TuneObservation
}

// tolerance is the relative improvement below which a move is considered
// neutral (measurement noise floor).
const tolerance = 0.05

// TuneObservation is one (threads, bandwidth) probe result.
type TuneObservation struct {
	Threads       int
	BandwidthMBps float64
}

// NewAutoTuner starts at `start` threads within [min, max].
func NewAutoTuner(start, min, max int) *AutoTuner {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	if start < min {
		start = min
	}
	if start > max {
		start = max
	}
	return &AutoTuner{Min: min, Max: max, current: start, direction: +1}
}

// Current returns the thread count to use for the next window.
func (at *AutoTuner) Current() int { return at.current }

// Settled reports whether the tuner has converged.
func (at *AutoTuner) Settled() bool { return at.settled }

// Best returns the observation with the highest bandwidth so far.
// Bandwidth ties resolve to the lowest thread count, so the answer is
// deterministic (and frugal) on plateaus regardless of probe order.
func (at *AutoTuner) Best() TuneObservation {
	best := TuneObservation{Threads: at.current}
	for _, o := range at.History {
		if o.BandwidthMBps > best.BandwidthMBps ||
			(o.BandwidthMBps == best.BandwidthMBps && o.Threads < best.Threads) {
			best = o
		}
	}
	return best
}

// Observe feeds the bandwidth measured with the current thread count and
// returns the count to try next. Movement is multiplicative (double or
// halve), which finds the Lustre-style knee in a handful of probes.
// While climbing, continuing requires a meaningful gain; after the
// reversal, shrinking only has to hold ground within tolerance — fewer
// threads at equal bandwidth are free. A non-positive bandwidth is
// always a regression, never a baseline, so a dead storage path cannot
// push the walk blindly to Max.
func (at *AutoTuner) Observe(bandwidthMBps float64) int {
	at.History = append(at.History, TuneObservation{Threads: at.current, BandwidthMBps: bandwidthMBps})
	if at.settled {
		return at.current
	}
	if bandwidthMBps <= 0 {
		return at.regress()
	}
	if !at.armed {
		at.armed = true
		at.lastBW = bandwidthMBps
		return at.step()
	}
	change := (bandwidthMBps - at.lastBW) / at.lastBW
	ok := change >= tolerance
	if at.reversals > 0 {
		ok = change > -tolerance
	}
	if !ok {
		return at.regress()
	}
	at.lastBW = bandwidthMBps
	return at.step()
}

// step moves one multiplicative notch in the current direction. A move
// clamped into place means the walk ran out of room: bounce once if the
// other side of the start is still unexplored, settle otherwise.
func (at *AutoTuner) step() int {
	next := at.current * 2
	if at.direction < 0 {
		next = at.current / 2
	}
	if next > at.Max {
		next = at.Max
	}
	if next < at.Min {
		next = at.Min
	}
	if next == at.current {
		if at.reversals == 0 {
			return at.reverse()
		}
		return at.settle()
	}
	at.current = next
	return at.current
}

// regress handles a probe that lost (or failed to meaningfully gain)
// bandwidth: the first one reverses the walk from the best-known
// setting, the second reverts to it and settles.
func (at *AutoTuner) regress() int {
	if at.reversals == 0 {
		return at.reverse()
	}
	return at.settle()
}

// reverse flips the climb direction and restarts the walk from the best
// observation so far (when one exists): the shrink probes descend from
// the revert point, comparing against its bandwidth.
func (at *AutoTuner) reverse() int {
	at.reversals++
	at.direction = -at.direction
	if best := at.Best(); best.BandwidthMBps > 0 {
		at.current = best.Threads
		at.lastBW = best.BandwidthMBps
	}
	return at.step()
}

// settle converges on the best-known configuration.
func (at *AutoTuner) settle() int {
	at.current = at.Best().Threads
	at.settled = true
	return at.current
}

// Tune drives probe runs until the tuner settles or maxProbes is reached,
// returning the chosen thread count. probe runs a (short) measurement at
// the given thread count and returns the observed POSIX read bandwidth.
func (at *AutoTuner) Tune(probe func(threads int) (float64, error), maxProbes int) (int, error) {
	for i := 0; i < maxProbes && !at.settled; i++ {
		bw, err := probe(at.current)
		if err != nil {
			return at.current, fmt.Errorf("core: autotune probe: %w", err)
		}
		at.Observe(bw)
	}
	if !at.settled {
		at.settle()
	}
	return at.current, nil
}
