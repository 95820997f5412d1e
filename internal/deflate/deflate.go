// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// This file is compress/flate's compressor cut down to the one level this
// package runs, the default (6): lazy matching with good 8, lazy 16, nice
// 128 and chain 128. The store, Huffman-only, BestSpeed and dictionary
// paths, Flush and Reset are gone. The one behavioural addition is match:
// the parse asks the chunk's precomputed findMatch results (see search.go)
// before walking a hash chain itself.

package deflate

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
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
	maxHashOffset       = 1 << 24

	// The default level's lazy-matching parameters. Its good length, 8,
	// never applies: every search starts from minMatchLength-1.
	lazy  = 16  // a previous match this long is taken without a search
	nice  = 128 // a match this long ends the search
	chain = 128 // hash-chain entries a search visits

	maxNumLit = 286
)

var errUnfinishedBits = errors.New("deflate: internal error: writeBytes with unfinished bits")

type compressor struct {
	w *huffmanBitWriter

	// Input hash chains
	// hashHead[hashValue] contains the largest inputIndex with the specified hash value
	// If hashHead[hashValue] is within the current window, then
	// hashPrev[hashHead[hashValue] & windowMask] contains the previous index
	// with the same hash value.
	chainHead  int
	hashHead   [hashSize]uint32
	hashPrev   [windowSize]uint32
	hashOffset int

	// input window: unprocessed data is window[index:windowEnd]
	index         int
	window        []byte
	windowEnd     int
	blockStart    int  // window index where current tokens start
	byteAvailable bool // if true, still need to process window[index-1].

	sync bool // requesting flush

	// queued output tokens
	tokens []token

	// deflate state
	length         int
	offset         int
	maxInsertIndex int
	err            error

	// windowBase is the stream position of window[0].
	windowBase int
	// memo holds the precomputed findMatch results for the chunk that
	// starts at stream position memoStart, in position order. memo[next]
	// is the first record not yet passed, and at is the chunk position
	// its delta counts from.
	memo      []match
	memoStart int
	next, at  int
}

func (d *compressor) init() {
	d.w = newHuffmanBitWriter(nil)
	d.window = make([]byte, 2*windowSize)
	d.tokens = make([]token, 0, maxFlateBlockTokens+1)
}

// reset readies d for a new stream written to w.
func (d *compressor) reset(w io.Writer) {
	d.w.reset(w)
	d.sync = false
	d.err = nil
	d.chainHead = -1
	clear(d.hashHead[:])
	clear(d.hashPrev[:])
	d.hashOffset = 1
	d.index, d.windowEnd = 0, 0
	d.blockStart, d.byteAvailable = 0, false
	d.tokens = d.tokens[:0]
	d.length = minMatchLength - 1
	d.offset = 0
	d.maxInsertIndex = 0
	d.windowBase = 0
	d.memo, d.memoStart, d.next, d.at = nil, 0, 0, 0
}

func (d *compressor) fillDeflate(b []byte) int {
	if d.index >= 2*windowSize-(minMatchLength+maxMatchLength) {
		// shift the window by windowSize
		copy(d.window, d.window[windowSize:2*windowSize])
		d.index -= windowSize
		d.windowEnd -= windowSize
		d.windowBase += windowSize
		if d.blockStart >= windowSize {
			d.blockStart -= windowSize
		} else {
			d.blockStart = math.MaxInt32
		}
		d.hashOffset += windowSize
		if d.hashOffset > maxHashOffset {
			delta := d.hashOffset - 1
			d.hashOffset -= delta
			d.chainHead -= delta

			// Iterate over slices instead of arrays to avoid copying
			// the entire table onto the stack.
			for i, v := range d.hashPrev[:] {
				if int(v) > delta {
					d.hashPrev[i] = uint32(int(v) - delta)
				} else {
					d.hashPrev[i] = 0
				}
			}
			for i, v := range d.hashHead[:] {
				if int(v) > delta {
					d.hashHead[i] = uint32(int(v) - delta)
				} else {
					d.hashHead[i] = 0
				}
			}
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

// match is findMatch at window index pos, answered from the chunk's memo
// when it holds pos. A memo entry was computed over the same bytes and the
// same hash chains, so it equals the search it replaces; the searcher
// records none where the window, not the data, decides the answer.
func (d *compressor) match(pos, prevHead, lookahead int) (length, offset int, ok bool) {
	if lookahead >= maxMatchLength {
		rel := d.windowBase + pos - d.memoStart
		for ; d.next < len(d.memo); d.next++ {
			m := d.memo[d.next]
			if m.length() == skipLength {
				d.at += m.skip()
				continue
			}
			if at := d.at + m.delta(); at == rel {
				return m.length(), m.offset(), m.length() != 0
			} else if at > rel {
				break
			}
			d.at += m.delta()
		}
	}
	return findMatch(d.window, &d.hashPrev, d.hashOffset, pos, prevHead, lookahead)
}

// findMatch looks for a match at window index pos longer than
// minMatchLength-1, following the hash chain that starts at window index
// prevHead through hashPrev, whose entries are window indices plus
// hashOffset. It looks at chain possibilities at most before giving up.
func findMatch(window []byte, hashPrev *[windowSize]uint32, hashOffset, pos, prevHead, lookahead int) (length, offset int, ok bool) {
	minMatchLook := maxMatchLength
	if lookahead < minMatchLook {
		minMatchLook = lookahead
	}

	win := window[0 : pos+minMatchLook]

	// We quit when we get a match that's at least nice long
	niceLen := min(len(win)-pos, nice)

	// The default level always searches with a previous length of
	// minMatchLength-1, below its good length, so the whole chain is
	// tried.
	tries := chain
	length = minMatchLength - 1

	wEnd := win[pos+length]
	wPos := win[pos:]
	minIndex := pos - windowSize

	for i := prevHead; tries > 0; tries-- {
		if wEnd == win[i+length] {
			n := matchLen(win[i:], wPos, minMatchLook)

			if n > length && (n > minMatchLength || pos-i <= 4096) {
				length = n
				offset = pos - i
				ok = true
				if n >= niceLen {
					// The match is good enough that we don't try to find a better one.
					break
				}
				wEnd = win[pos+n]
			}
		}
		if i == minIndex {
			// hashPrev[i & windowMask] has already been overwritten, so stop now.
			break
		}
		i = int(hashPrev[i&windowMask]) - hashOffset
		if i < minIndex || i < 0 {
			break
		}
	}
	return
}

const hashmul = 0x1e35a7bd

// hash4 returns a hash representation of the first 4 bytes
// of the supplied slice.
// The caller must ensure that len(b) >= 4.
func hash4(b []byte) uint32 {
	return ((uint32(b[3]) | uint32(b[2])<<8 | uint32(b[1])<<16 | uint32(b[0])<<24) * hashmul) >> (32 - hashBits)
}

// matchLen returns the number of matching bytes in a and b
// up to length 'max'. Both slices must be at least 'max'
// bytes in size. It compares eight bytes at a time.
func matchLen(a, b []byte, max int) int {
	a = a[:max]
	b = b[:len(a)]
	n := 0
	for ; len(a)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for ; n < len(a); n++ {
		if a[n] != b[n] {
			return n
		}
	}
	return max
}

// insert adds window index i to the hash chains and returns the previous
// head of its chain.
func (d *compressor) insert(i int) int {
	hh := &d.hashHead[hash4(d.window[i:i+minMatchLength])&hashMask]
	head := int(*hh)
	d.hashPrev[i&windowMask] = uint32(head)
	*hh = uint32(i + d.hashOffset)
	return head
}

func (d *compressor) deflate() {
	if d.windowEnd-d.index < minMatchLength+maxMatchLength && !d.sync {
		return
	}

	d.maxInsertIndex = d.windowEnd - (minMatchLength - 1)

	for {
		lookahead := d.windowEnd - d.index
		if lookahead < minMatchLength+maxMatchLength {
			if !d.sync {
				return
			}
			if lookahead == 0 {
				// Flush current output block if any.
				if d.byteAvailable {
					// There is still one pending token that needs to be flushed
					d.tokens = append(d.tokens, literalToken(uint32(d.window[d.index-1])))
					d.byteAvailable = false
				}
				if len(d.tokens) > 0 {
					if d.err = d.writeBlock(d.tokens, d.index); d.err != nil {
						return
					}
					d.tokens = d.tokens[:0]
				}
				return
			}
		}
		if d.index < d.maxInsertIndex {
			d.chainHead = d.insert(d.index)
		}
		prevLength := d.length
		prevOffset := d.offset
		d.length = minMatchLength - 1
		d.offset = 0
		minIndex := max(d.index-windowSize, 0)

		if d.chainHead-d.hashOffset >= minIndex && lookahead > prevLength && prevLength < lazy {
			if newLength, newOffset, ok := d.match(d.index, d.chainHead-d.hashOffset, lookahead); ok {
				d.length = newLength
				d.offset = newOffset
			}
		}
		if prevLength >= minMatchLength && d.length <= prevLength {
			// There was a match at the previous step, and the current match is
			// not better. Output the previous match.
			d.tokens = append(d.tokens, matchToken(uint32(prevLength-baseMatchLength), uint32(prevOffset-baseMatchOffset)))
			// Insert in the hash table all strings up to the end of the match.
			// index and index-1 are already inserted. If there is not enough
			// lookahead, the last two strings are not inserted into the hash
			// table.
			newIndex := d.index + prevLength - 1
			index := d.index
			for index++; index < newIndex; index++ {
				if index < d.maxInsertIndex {
					d.insert(index)
				}
			}
			d.index = index
			d.byteAvailable = false
			d.length = minMatchLength - 1
			if len(d.tokens) == maxFlateBlockTokens {
				// The block includes the current character
				if d.err = d.writeBlock(d.tokens, d.index); d.err != nil {
					return
				}
				d.tokens = d.tokens[:0]
			}
		} else {
			if d.byteAvailable {
				i := d.index - 1
				d.tokens = append(d.tokens, literalToken(uint32(d.window[i])))
				if len(d.tokens) == maxFlateBlockTokens {
					if d.err = d.writeBlock(d.tokens, i+1); d.err != nil {
						return
					}
					d.tokens = d.tokens[:0]
				}
			}
			d.index++
			d.byteAvailable = true
		}
	}
}

func (d *compressor) write(b []byte) error {
	for len(b) > 0 && d.err == nil {
		d.deflate()
		b = b[d.fillDeflate(b):]
	}
	return d.err
}

// writeChunk writes the chunk at stream position start, taking searches
// from memo, and parses it as far as its lookahead allows, so that the
// next chunk's write starts at the positions its own memo covers.
// Parsing early changes nothing: the parse of a window does not depend on
// when it runs.
func (d *compressor) writeChunk(b []byte, memo []match, start int) error {
	d.memo, d.memoStart, d.next, d.at = memo, start, 0, 0
	if d.write(b) == nil {
		d.deflate()
	}
	d.memo = nil
	return d.err
}

// close compresses what is left in the window and ends the stream.
func (d *compressor) close() error {
	if d.err != nil {
		return d.err
	}
	d.sync = true
	d.deflate()
	if d.err != nil {
		return d.err
	}
	d.w.writeStoredHeader(0, true)
	d.w.flush()
	return d.w.err
}
