package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// A shared host slows down when other tenants load it, by up to 2x for
// minutes at a time: on a 2-vCPU cloud VM the same repetition took 8.9 s
// in one ten-run set and 4.7 s in the next. Repetitions within a run
// cannot average that out, so every repetition also times a fixed
// reference computation right before and right after the measured phase,
// and the end-to-end times are reported in reference seconds: the raw
// time scaled by refNominal over the reference's geometric mean time. One
// 70 ms sample of the reference varies by about 13%, so the mean is taken
// over eight. The raw times stay in the traced run's per-layer metrics.

// refNominal is the reference computation's time on that VM when quiet,
// the unit of the normalized times.
const refNominal = 0.07

// refRuns is how many times the reference runs on each side of a
// repetition's measured phase.
const refRuns = 4

var refSink int

// refKernel is the reference computation: map inserts of path-like keys,
// pointer-chasing allocation, a sort, reflection-driven binary encoding
// and gzip — the kinds of work the simulator, the Darshan codec and the
// trace export do. It never changes, so its time measures the host alone.
func refKernel() {
	type node struct {
		next *node
		id   int64
		name string
	}
	rng := rand.New(rand.NewSource(1))
	m := make(map[string]*node)
	var head *node
	for i := 0; i < 40000; i++ {
		n := &node{next: head, id: rng.Int63(), name: "/pfs/lustre/imagenet/f-" + strconv.Itoa(i)}
		head = n
		m[n.name] = n
	}
	xs := make([]*node, 0, len(m))
	for n := head; n != nil; n = n.next {
		xs = append(xs, n)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i].id < xs[j].id })
	var buf bytes.Buffer
	for _, n := range xs[:20000] {
		binary.Write(&buf, binary.LittleEndian, n.id)
		fmt.Fprintf(&buf, `{"name":%q,"ts":%d},`, n.name, n.id%100000)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(buf.Bytes())
	zw.Close()
	refSink += gz.Len() + len(m)
}

// timeReference runs the reference computation n times and returns each
// run's wall time in seconds.
func timeReference(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		refKernel()
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
