package sim

// BlessedExternalGoroutines is the exhaustive whitelist of places where raw
// goroutines, native channels and sync primitives are legal. Everywhere
// else, concurrency must go through the kernel (Kernel.Spawn, Mutex,
// Semaphore, Barrier, Chan): a goroutine the kernel cannot see
// is excluded from deadlock detection, runs outside virtual time, and can
// race the single-threaded scheduler state.
//
// Entries are either a package import path (the whole package is blessed)
// or an import path plus a file name (only that file is blessed).
//
// tools/simlint's kerneldiscipline analyzer imports this variable directly
// as its configuration, so the whitelist and the code it blesses cannot
// drift apart: adding a raw goroutine anywhere else fails `make lint`
// until the site is either ported to the kernel API or added here with a
// justification.
var BlessedExternalGoroutines = []string{
	// The kernel itself: Spawn's coroutine-per-thread multiplexing, the
	// park/resume handoff through iter.Pull and Shutdown's reaper are the
	// one place native concurrency is the implementation, not an escape
	// hatch.
	"repro/internal/sim",

	// The parallel experiment harness: a worker pool distributing whole,
	// self-contained kernel runs across host cores. It never touches a
	// live kernel's state; serial/parallel byte-identity tests pin that.
	"repro/internal/experiments/parallel.go",

	// The gzip writer of the Darshan log and the trace export: worker
	// goroutines run the lazy parse over chunks of the stream while the
	// calling goroutine splices their tokens in stream order, checking
	// each handoff, and codes them. Its reader of whole streams runs
	// compress/gzip on one worker goroutine into a ring of blocks the
	// caller reads in order. Both run on finished data outside any kernel
	// run, and their output is byte-identical to compress/gzip's whatever
	// the worker count or timing (the writer's differential tests and
	// fuzz target, and the reader's differential test, pin that).
	"repro/internal/deflate",
}
