// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package deflate

import (
	"encoding/binary"
	"math/bits"
)

// At the default level the lazy parse is a function of the input bytes
// alone, apart from the two places where compress/flate's window decides
// what a search may see:
//   - the stream's end, where the search is cut to the bytes left;
//   - the slide edge. compress/flate slides its window by windowSize once
//     its parse has stepped to within minMatchLength+maxMatchLength-1 bytes
//     of the window's end and more input follows, and the slide drops every
//     position older than the new window start. So a step at one of the
//     last minMatchLength+maxMatchLength-1 positions before a multiple B of
//     windowSize searches back only to B-windowSize, unless the stream ends
//     at or before B, in which case no slide comes and the step searches
//     the whole windowSize behind it.
//
// run follows both rules, so a parse run by a worker over a chunk, given
// the true state at the chunk's first step, yields exactly the tokens
// compress/flate emits there. A worker does not know that state: it starts
// cold, warmup bytes before the handoff step, the first past
// chunkStart-(minMatchLength+maxMatchLength), where the previous chunk's
// parse stops for want of lookahead. Two lazy parses of the same bytes
// fall into step within a few tokens, so the cold parse almost always
// reaches the handoff step in the true state; the compressor checks that,
// and has the chunk parsed again from the true state when it does not.

// warmup is how far before the handoff step a cold parse starts.
const warmup = 1 << 10

// parseState is the lazy parse between two steps: the next position to
// step at, the match found at the position before it (length
// minMatchLength-1 and offset 0 when none), and whether the byte before
// it still needs a token.
type parseState struct {
	index          int // stream position
	length, offset int
	byteAvailable  bool
}

// parser owns the hash chains of one parse at a time. A chain entry is
// a stream position minus base. A parse that cannot continue where the
// previous one stopped moves base so that every entry already in the
// tables lies before its data, which is cheaper than clearing them; they
// are cleared only when entries would reach 1<<31.
type parser struct {
	hashHead [hashSize]uint32
	hashPrev [windowSize]uint32
	base     int
	hi       int  // one past the last stream position inserted
	dirty    bool // the tables hold another stream's positions
}

// parse runs the lazy parse over j from j.from: up to the handoff step,
// dropping its tokens, then to the end of j.data, keeping them in
// j.tokens. It records the state at the handoff step in j.handoff and the
// state it stops in, which the next chunk's handoff must equal, in j.end.
func (p *parser) parse(j *job) {
	start := j.start - j.hist // stream position of j.data[0], a multiple of windowSize
	p.chain(j.data, start, j.from.index)
	st := j.from
	j.tokens = p.run(j.data, start, &st, j.hist, false, j.tokens[:0])
	j.handoff = st
	j.tokens = p.run(j.data, start, &st, len(j.data), j.final, j.tokens[:0])
	j.end = st
	p.hi = st.index
}

// chain makes the tables hold every stream position in [start, from) and
// nothing at or after from. A parse that stopped at from left them so;
// otherwise base moves past every entry and the positions are inserted.
func (p *parser) chain(data []byte, start, from int) {
	if !p.dirty && p.hi == from && start+len(data)-p.base < 1<<31 {
		return
	}
	top := p.hi - p.base // above every entry, whichever stream made it
	if top+len(data) >= 1<<31 {
		clear(p.hashHead[:])
		clear(p.hashPrev[:])
		top = 0
	}
	p.base, p.dirty = start-top-1, false
	p.insertRange(data, 0, from-start, start-p.base)
}

// run steps the parse in st over data, whose first byte is stream
// position start, appending the tokens it emits to toks. It stops at the
// first step with fewer than minMatchLength+maxMatchLength bytes before
// end; when final, the stream ends at end and the parse runs to it.
func (p *parser) run(data []byte, start int, st *parseState, end int, final bool, toks []token) []token {
	hashOffset := start - p.base
	index := st.index - start
	length, offset, byteAvailable := st.length, st.offset, st.byteAvailable
	maxInsertIndex := end - (minMatchLength - 1)
	for {
		lookahead := end - index
		if lookahead < minMatchLength+maxMatchLength {
			if !final {
				break
			}
			if lookahead == 0 {
				if byteAvailable {
					toks = append(toks, literalToken(uint32(data[index-1])))
					byteAvailable = false
				}
				break
			}
		}
		prevLength, prevOffset := length, offset
		length, offset = minMatchLength-1, 0
		if index < maxInsertIndex {
			head := p.insert(data, index, hashOffset) - hashOffset
			floor := max(index-windowSize, 0)
			if b := index&^windowMask + windowSize; b-index < minMatchLength+maxMatchLength && (!final || b < end) {
				floor = b - windowSize // after the slide at b
			}
			if head >= floor && lookahead > prevLength && prevLength < lazy {
				if n, off, ok := findMatch(data, &p.hashPrev, hashOffset, index, head, floor, lookahead); ok {
					length, offset = n, off
				}
			}
		}
		if prevLength >= minMatchLength && length <= prevLength {
			// There was a match at the previous step, and the current
			// match is not better. Emit the previous match and insert the
			// positions it covers; index and index-1 are already in.
			toks = append(toks, matchToken(uint32(prevLength-baseMatchLength), uint32(prevOffset-baseMatchOffset)))
			newIndex := index + prevLength - 1
			p.insertRange(data, index+1, min(newIndex, maxInsertIndex), hashOffset)
			index = newIndex
			length, offset, byteAvailable = minMatchLength-1, 0, false
		} else {
			if byteAvailable {
				toks = append(toks, literalToken(uint32(data[index-1])))
			}
			index++
			byteAvailable = true
		}
	}
	*st = parseState{start + index, length, offset, byteAvailable}
	return toks
}

// insertRange inserts data indices [from, to) into the hash chains.
func (p *parser) insertRange(data []byte, from, to, hashOffset int) {
	for i := from; i < to; i++ {
		p.insert(data, i, hashOffset)
	}
}

// insert adds data index i to the hash chains and returns the previous
// head of its chain, as an index plus hashOffset.
func (p *parser) insert(data []byte, i, hashOffset int) int {
	hh := &p.hashHead[hash4(data[i:i+minMatchLength])&hashMask]
	head := int(*hh)
	p.hashPrev[i&windowMask] = uint32(head)
	*hh = uint32(i + hashOffset)
	return head
}

// findMatch looks for a match at window index pos longer than
// minMatchLength-1, following the hash chain that starts at window index
// prevHead through hashPrev, whose entries are window indices plus
// hashOffset, down to window index floor. It looks at chain possibilities
// at most before giving up.
func findMatch(window []byte, hashPrev *[windowSize]uint32, hashOffset, pos, prevHead, floor, lookahead int) (length, offset int, ok bool) {
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
		if i == pos-windowSize {
			// hashPrev[i & windowMask] has already been overwritten, so stop now.
			break
		}
		i = int(hashPrev[i&windowMask]) - hashOffset
		if i < floor {
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
