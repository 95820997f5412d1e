package deflate

// At the default level, findMatch(pos) is a function of the input bytes
// alone: the parse inserts every position into the hash chains, so the
// chains at pos are those of the data before it, and every search starts
// from the same previous length (minMatchLength-1). A searcher can
// therefore run the lazy parse over a chunk ahead of the compressor and
// record each search it makes. Its parse starts cold at the chunk start
// and so may disagree with the compressor's for the first few matches,
// but both parses land on a common position within a few hundred bytes,
// after which they make the same searches; a position the searcher never
// visited is simply searched again by the compressor.
//
// Two kinds of position get no record, because there the compressor's
// answer can depend on more than the data:
//   - lookahead below maxMatchLength, where the search length is cut to
//     the bytes left in the window;
//   - the slide edge, the last slideEdge positions before a multiple of
//     windowSize. The compressor slides its window by windowSize once its
//     parse passes 2*windowSize-(minMatchLength+maxMatchLength), which
//     drops the positions in the first half; whether a position just
//     before the next multiple of windowSize is searched before or after
//     that slide depends on where the parse lands, and after it the chain
//     misses the dropped positions.

// slideEdge covers the minMatchLength+maxMatchLength positions a parse
// can reach before the slide, with a margin.
const slideEdge = 264

// A match is one recorded findMatch result packed into 32 bits: the
// distance from the previous record's position (8 bits), the match length
// (9 bits, 0 when no match was found) and the offset minus one (15 bits).
// A distance of 256 or more first takes a skip record, whose length field
// is skipLength and whose other 23 bits hold the distance.
type match uint32

const skipLength = 1

func (m match) delta() int  { return int(m >> 24) }
func (m match) length() int { return int(m >> 15 & 0x1ff) }
func (m match) offset() int { return int(m&0x7fff) + 1 }

// skip is the distance a skip record covers.
func (m match) skip() int { return int(m>>24) | int(m&0x7fff)<<8 }

// A chunk keeps at most chunk/bytesPerRecord records, and its search
// stops when they are full. The densest chunks of the simulator's logs
// and traces need about one record per 5.6 bytes.
const bytesPerRecord = 4

// searcher owns one worker's hash chains. They store stream positions
// as position-base+1, 0 meaning none, and hold every position in
// [lo, hi); anything else in them is older than lo.
type searcher struct {
	hashHead [hashSize]uint32
	hashPrev [windowSize]uint32
	base     int
	lo, hi   int
	dirty    bool // the tables hold another stream's positions
}

// search runs the lazy parse over j's chunk and records its searches in
// j.memo.
func (s *searcher) search(j *job) {
	// start, the stream position of j.data[0], is a multiple of
	// windowSize, so window indices and stream positions share their
	// hashPrev slots.
	start := j.start - j.hist
	end := len(j.data)
	if s.dirty || start+end-s.base >= 1<<31 || s.lo > start && s.hi > start {
		clear(s.hashHead[:])
		clear(s.hashPrev[:])
		s.base, s.lo, s.hi, s.dirty = start, start, start, false
	} else if s.hi < start {
		s.lo, s.hi = start, start
	}
	hashOffset := start - s.base + 1
	// Fill in the chains over the window before the chunk.
	for i := s.hi - start; i < j.hist; i++ {
		s.insert(j.data, i, hashOffset)
	}

	j.memo, j.last = j.memo[:0], 0
	maxInsertIndex := end - (minMatchLength - 1)
	index, length := j.hist, minMatchLength-1
	for end-index >= maxMatchLength {
		lookahead := end - index
		chainHead := s.insert(j.data, index, hashOffset)
		prevLength := length
		length = minMatchLength - 1
		minIndex := max(index-windowSize, 0)
		if chainHead-hashOffset >= minIndex && lookahead > prevLength && prevLength < lazy {
			n, off, ok := findMatch(j.data, &s.hashPrev, hashOffset, index, chainHead-hashOffset, lookahead)
			if (start+index)&windowMask < windowSize-slideEdge {
				if len(j.memo) >= cap(j.memo)-1 {
					break
				}
				if !ok {
					n, off = 0, 1
				}
				j.record(index-j.hist, n, off)
			}
			if ok {
				length = n
			}
		}
		if prevLength >= minMatchLength && length <= prevLength {
			newIndex := index + prevLength - 1
			for index++; index < newIndex; index++ {
				if index < maxInsertIndex {
					s.insert(j.data, index, hashOffset)
				}
			}
			length = minMatchLength - 1
		} else {
			index++
		}
	}
	s.hi = start + min(index, maxInsertIndex)
}

// insert adds window index i to the hash chains and returns the previous
// head of its chain.
func (s *searcher) insert(window []byte, i, hashOffset int) int {
	hh := &s.hashHead[hash4(window[i:i+minMatchLength])&hashMask]
	head := int(*hh)
	s.hashPrev[i&windowMask] = uint32(head)
	*hh = uint32(i + hashOffset)
	return head
}

// record appends the search at chunk position pos to j.memo.
func (j *job) record(pos, length, offset int) {
	d := pos - j.last
	if d >= 1<<8 {
		j.memo = append(j.memo, match(d&0xff<<24|skipLength<<15|d>>8))
		d = 0
	}
	j.memo = append(j.memo, match(d<<24|length<<15|(offset-1)))
	j.last = pos
}
