// Package kerneldiscipline is a fixture for the raw-concurrency analyzer:
// nothing here is blessed, so every goroutine, coroutine, sync primitive
// and channel op must be flagged.
package kerneldiscipline

import (
	"iter"
	"sync"
)

func Spawn(work func()) {
	go work() // want `raw goroutine is invisible to the sim kernel`
}

func Coroutines(seq iter.Seq[int], seq2 iter.Seq2[int, int]) {
	next, stop := iter.Pull(seq) // want `iter\.Pull starts a coroutine goroutine invisible to the sim kernel`
	defer stop()
	next()
	next2, stop2 := iter.Pull2(seq2) // want `iter\.Pull2 starts a coroutine goroutine invisible to the sim kernel`
	defer stop2()
	next2()
	for range seq { // ok: a range-over-func loop runs on the caller's goroutine
	}
}

func Locked(n *int) {
	var mu sync.Mutex // want `sync\.Mutex blocks the host thread`
	mu.Lock()         // want `sync\.Lock blocks the host thread`
	*n++
	mu.Unlock() // want `sync\.Unlock blocks the host thread`
}

func Waited() {
	var wg sync.WaitGroup // want `sync\.WaitGroup blocks the host thread`
	wg.Wait()             // want `sync\.Wait blocks the host thread`
}

func Channels(n int) int {
	ch := make(chan int, n) // want `raw channel is invisible to the sim kernel`
	ch <- 1                 // want `raw channel send bypasses the sim kernel`
	v := <-ch               // want `raw channel receive bypasses the sim kernel`
	select {                // want `select over raw channels bypasses the sim kernel`
	case w := <-ch: // want `raw channel receive bypasses the sim kernel`
		v += w
	default:
	}
	close(ch) // want `close on a raw channel bypasses the sim kernel`
	return v
}

func Ranged(ch chan int) int {
	total := 0
	for v := range ch { // want `range over a raw channel bypasses the sim kernel`
		total += v
	}
	return total
}

func Allowed(work func()) {
	go work() //lint:allow kerneldiscipline fixture exercises suppression
}
