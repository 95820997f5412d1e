// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is compress/flate's compressor cut down to what is left of it
// once workers run the lazy parse (parse.go): the window, which only keeps
// the bytes a block may be stored as, the token queue and its block cuts,
// and the Huffman coding. It runs the default level (6): lazy matching
// with good 8, lazy 16, nice 128 and chain 128. The store, Huffman-only,
// BestSpeed and dictionary paths, Flush and Reset are gone.

package deflate

import (
	"errors"
	"io"
	"math"
)

const (
	logWindowSize = 15
	windowSize    = 1 << logWindowSize
	windowMask    = windowSize - 1

	// The LZ77 step produces a sequence of literal tokens and <length, offset>
	// pair tokens. The offset is also known as distance. The underlying wire
	// format limits the range of lengths and offsets. For example, there are
	// 256 legitimate lengths: those in the range [3, 258]. This package's
	// compressor uses a higher minimum match length, enabling optimizations
	// such as finding matches via 32-bit loads and compares.
	baseMatchLength = 3   // The smallest match length per the RFC section 3.2.5
	minMatchLength  = 4   // The smallest match length that the compressor actually emits
	maxMatchLength  = 258 // The largest match length
	baseMatchOffset = 1   // The smallest match offset

	// The maximum number of tokens we put into a single flate block, just to
	// stop things from getting too large.
	maxFlateBlockTokens = 1 << 14
	maxStoreBlockSize   = 65535
	hashBits            = 17 // After 17 performance degrades
	hashSize            = 1 << hashBits
	hashMask            = (1 << hashBits) - 1

	// The default level's lazy-matching parameters. Its good length, 8,
	// never applies: every search starts from minMatchLength-1.
	lazy  = 16  // a previous match this long is taken without a search
	nice  = 128 // a match this long ends the search
	chain = 128 // hash-chain entries a search visits

	maxNumLit = 286
)

var errUnfinishedBits = errors.New("deflate: internal error: writeBytes with unfinished bits")

// compressor turns the parse's tokens into blocks. It mirrors
// compress/flate's window, filled and slid as a single Write of the whole
// stream fills and slides it, because a block is stored raw when that is
// smaller, and a block only has its raw bytes when no slide dropped its
// start.
type compressor struct {
	w *huffmanBitWriter

	// input window: the next token covers window[index:]
	index      int
	window     []byte
	windowEnd  int
	blockStart int // window index where current tokens start

	// queued output tokens
	tokens []token
	// state is the true parse state where the last chunk written
	// stopped: the next chunk's tokens must take over in it.
	state parseState
	err   error
}

func (d *compressor) init() {
	d.w = newHuffmanBitWriter(nil)
	d.window = make([]byte, 2*windowSize)
	d.tokens = make([]token, 0, maxFlateBlockTokens+1)
}

// reset readies d for a new stream written to w.
func (d *compressor) reset(w io.Writer) {
	d.w.reset(w)
	d.err = nil
	d.index, d.windowEnd, d.blockStart = 0, 0, 0
	d.tokens = d.tokens[:0]
	d.state = parseState{length: minMatchLength - 1}
}

// fill copies input into the window, first sliding it by windowSize when
// it is full, as compress/flate does once its parse has stepped past
// 2*windowSize-(minMatchLength+maxMatchLength).
func (d *compressor) fill(b []byte) int {
	if d.windowEnd == len(d.window) {
		copy(d.window, d.window[windowSize:])
		d.index -= windowSize
		d.windowEnd -= windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
	}
	n := copy(d.window[d.windowEnd:], b)
	d.windowEnd += n
	return n
}

func (d *compressor) writeBlock(tokens []token, index int) error {
	if index > 0 {
		var window []byte
		if d.blockStart <= index {
			window = d.window[d.blockStart:index]
		}
		d.blockStart = index
		d.w.writeBlock(tokens, false, window)
		return d.w.err
	}
	return nil
}

// code queues those of toks that compress/flate emits before it next
// fills its window: the tokens whose step (the position after the
// token's start) leaves minMatchLength+maxMatchLength bytes of
// lookahead, or all of them at the stream's end. It writes a block each
// time maxFlateBlockTokens are queued, and returns the tokens it left.
func (d *compressor) code(toks []token, final bool) []token {
	limit := d.windowEnd - (minMatchLength + maxMatchLength)
	if final {
		limit = math.MaxInt
	}
	for len(toks) > 0 && d.index < limit && d.err == nil {
		n := 0
		for room := min(len(toks), maxFlateBlockTokens-len(d.tokens)); n < room && d.index < limit; n++ {
			if t := toks[n]; t < matchType {
				d.index++
			} else {
				d.index += int(t.length()) + baseMatchLength
			}
		}
		d.tokens = append(d.tokens, toks[:n]...)
		toks = toks[n:]
		if len(d.tokens) == maxFlateBlockTokens {
			d.err = d.writeBlock(d.tokens, d.index)
			d.tokens = d.tokens[:0]
		}
	}
	return toks
}

// writeChunk compresses j's chunk, whose tokens start in d.state.
func (d *compressor) writeChunk(j *job) error {
	toks := j.tokens
	for b := j.data[j.hist:]; len(b) > 0 && d.err == nil; {
		toks = d.code(toks, false)
		b = b[d.fill(b):]
	}
	d.code(toks, j.final)
	d.state = j.end
	return d.err
}

// close writes the last block and ends the stream.
func (d *compressor) close() error {
	if d.err == nil && len(d.tokens) > 0 {
		d.err = d.writeBlock(d.tokens, d.index)
	}
	if d.err != nil {
		return d.err
	}
	d.w.writeStoredHeader(0, true)
	d.w.flush()
	return d.w.err
}
