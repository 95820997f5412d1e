package deflate

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// This file is the decoder: DEFLATE (RFC 1951) inside gzip members
// (RFC 1952), with the framing and the accept/reject rules of
// compress/gzip and compress/flate. It differs from them in how it gets at
// its input: it reads the source into a buffer of its own and keeps a
// 64-bit bit buffer that one unaligned load refills 8 bytes at a time, so
// the hot loop makes no interface call per byte. Codes decode through
// two-level tables whose entries carry a length's or distance's base and
// extra-bit count, and matches are copied 8 bytes at a time.
//
// Near the end of the input, where a load of 8 bytes would run past it,
// each symbol decodes through the slow path, which asks for bits exactly
// as compress/flate does, so a truncated or damaged stream fails the same
// way: io.ErrUnexpectedEOF where compress/flate runs out of input, a
// corrupt-input error where it finds a bad code.

const (
	// rootBits is the width of a table's first level. Longer codes go on
	// to a second-level table sized for the longest code under their
	// rootBits-bit prefix.
	rootBits = 10
	rootMask = 1<<rootBits - 1

	maxCodeBits = 15 // the longest code RFC 1951 allows
	numDistSyms = 32 // distance codes the fixed code spans (30 and 31 are invalid)
	numLitSyms  = 288

	// outChunk is the most output decoded between two slides of the
	// window. The window keeps windowSize bytes of history before it, and
	// room for one more match and the 8-byte copy overrun after it.
	outChunk   = 64 << 10
	flushAt    = windowSize + outChunk
	windowCap  = flushAt + maxMatchLength + 8
	inputChunk = 32 << 10 // the source is read this much at a time
)

// A table entry packs a decoded symbol.
const (
	entryLenMask = 0x1f    // bits 0-4: code length; 0 for no code
	entryLit     = 1 << 5  // a literal byte, in the value
	entryEOB     = 1 << 6  // end of block
	entryLink    = 1 << 7  // a second-level table: offset in the value, width in the extra field
	entryBad     = 1 << 12 // a code for a symbol the format does not define
	entryExtra   = 8       // bits 8-11: extra bits of a length or distance
	entryValue   = 16      // bits 16-31: literal, length or distance base, or table offset
)

// errCorrupt is what the decoder returns for input compress/flate
// reports as flate.CorruptInputError.
var errCorrupt = errors.New("deflate: corrupt input")

// huffTable decodes one prefix code: root is indexed by the next
// rootBits bits of input (first bit lowest), sub holds the second-level
// tables.
type huffTable struct {
	root [1 << rootBits]uint32
	sub  []uint32
	// min is the bits compress/flate reads before it looks a code up: the
	// shortest code length, raised to the end-of-block code's length for a
	// dynamic literal/length code.
	min uint
}

// init builds t from code lengths, where values[sym] is the entry flags
// and value of sym. It accepts exactly the codes compress/flate does:
// complete ones, the empty code, and one code of length 1.
func (t *huffTable) init(lengths []uint8, values []uint32) bool {
	var count [maxCodeBits + 1]int
	minLen, maxLen := 0, 0
	for _, n := range lengths {
		if n == 0 {
			continue
		}
		if minLen == 0 || int(n) < minLen {
			minLen = int(n)
		}
		maxLen = max(maxLen, int(n))
		count[n]++
	}
	t.sub = t.sub[:0]
	t.min = uint(minLen)
	if maxLen == 0 {
		t.root = [1 << rootBits]uint32{}
		return true
	}
	var next [maxCodeBits + 2]int
	code := 0
	for n := minLen; n <= maxLen; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return false
	}
	if code != 1<<maxLen {
		// The one code of length 1 leaves half the entries 0, for no
		// code. A complete code fills every entry below.
		t.root = [1 << rootBits]uint32{}
	}

	// Second-level tables: one per rootBits-bit prefix of the long codes,
	// as wide as the longest code under it. Canonical codes grow with
	// their length, so the codes under a prefix are assigned in a run.
	if maxLen > rootBits {
		var width [1 << rootBits]uint8
		c := next
		for _, n := range lengths {
			if int(n) > rootBits {
				p := reverse(c[n], n) & rootMask
				c[n]++
				width[p] = max(width[p], n-rootBits)
			}
		}
		for p, w := range width {
			if w > 0 {
				t.root[p] = uint32(len(t.sub))<<entryValue | uint32(w)<<entryExtra | entryLink
				t.sub = append(t.sub, make([]uint32, 1<<w)...)
			}
		}
	}
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		r := reverse(next[n], n)
		next[n]++
		e := values[sym] | uint32(n)
		if n <= rootBits {
			for i := r; i < 1<<rootBits; i += 1 << n {
				t.root[i] = e
			}
			continue
		}
		link := t.root[r&rootMask]
		sub := t.sub[link>>entryValue:][:1<<(link>>entryExtra&0xf)]
		for i := r >> rootBits; i < len(sub); i += 1 << (n - rootBits) {
			sub[i] = e
		}
	}
	return true
}

// lookup returns the entry for the code at the bottom of b.
func (t *huffTable) lookup(b uint64) uint32 {
	e := t.root[b&rootMask]
	if e&entryLink != 0 {
		e = t.sub[e>>entryValue+uint32(b>>rootBits)&(1<<(e>>entryExtra&0xf)-1)]
	}
	return e
}

// reverse returns the n-bit code c with its bits reversed, the order in
// which it is read.
func reverse(c int, n uint8) int { return int(bits.Reverse16(uint16(c)) >> (16 - n)) }

// litValue is the entry value of literal/length symbol sym.
func litValue(sym int) uint32 {
	switch {
	case sym < endBlockMarker:
		return uint32(sym)<<entryValue | entryLit
	case sym == endBlockMarker:
		return entryEOB
	case sym < maxNumLit:
		k := sym - lengthCodesStart
		return (lengthBase[k]+baseMatchLength)<<entryValue | uint32(lengthExtraBits[k])<<entryExtra
	}
	return entryBad
}

// distValue is the entry value of distance symbol sym.
func distValue(sym int) uint32 {
	if sym < offsetCodeCount {
		return (offsetBase[sym]+baseMatchOffset)<<entryValue | uint32(offsetExtraBits[sym])<<entryExtra
	}
	return entryBad
}

// codeLenValue is the entry value of code-length symbol sym.
func codeLenValue(sym int) uint32 { return uint32(sym) << entryValue }

// litValues, distValues and codeLenValues are the entry values of every
// symbol of the three kinds of code.
var litValues, distValues, codeLenValues = values(numLitSyms, litValue), values(numDistSyms, distValue), values(codegenCodeCount, codeLenValue)

func values(n int, value func(sym int) uint32) []uint32 {
	v := make([]uint32, n)
	for sym := range v {
		v[sym] = value(sym)
	}
	return v
}

// fixedLit and fixedDist are the fixed codes of RFC 1951 section 3.2.6,
// all 288 literal/length and 32 distance symbols included, so the two of
// each that compress/flate rejects decode to entryBad.
var fixedLit, fixedDist = sync.OnceValue(func() *huffTable {
	var lengths [numLitSyms]uint8
	for i := range lengths {
		switch {
		case i < 144:
			lengths[i] = 8
		case i < 256:
			lengths[i] = 9
		case i < 280:
			lengths[i] = 7
		default:
			lengths[i] = 8
		}
	}
	t := new(huffTable)
	t.init(lengths[:], litValues)
	return t
}), sync.OnceValue(func() *huffTable {
	var lengths [numDistSyms]uint8
	for i := range lengths {
		lengths[i] = 5
	}
	t := new(huffTable)
	t.init(lengths[:], distValues)
	return t
})

// Decoder states: where the next step starts.
const (
	stateHeader  = iota // a gzip member header
	stateBlock          // a block header
	stateStored         // inside a stored block
	stateHuffman        // inside a compressed block
	stateTrailer        // the member's CRC-32 and size
	stateNext           // the end of the input or another member
)

// inflater decodes a gzip stream into a sliding output window.
type inflater struct {
	src    io.Reader
	buf    []byte // input buffer; buf[pos:] is not consumed yet
	pos    int
	srcErr error // the source's error, io.EOF at its end, once it returned one

	bits  uint64 // bits of input not consumed yet, first bit lowest
	nbits uint   // how many; bits above them are the input's next bits or 0

	win    []byte // output window
	w      int    // win[:w] is decoded
	r      int    // win[r:w] is not read yet
	member int    // where the member's output starts in win; below 0 once slid past

	state   int
	final   bool // the block being decoded is the member's last
	stored  int  // bytes left in the stored block
	lit     *huffTable
	dist    *huffTable
	digest  uint32 // CRC-32 of the member's output so far
	size    uint32 // and its length, modulo 2^32
	err     error  // sticky
	dynLit  huffTable
	dynDist huffTable
	codeLen huffTable
	lengths [maxNumLit + offsetCodeCount]uint8
}

func newInflater(src io.Reader) *inflater {
	return &inflater{
		src: src,
		buf: make([]byte, 0, inputChunk),
		win: make([]byte, windowCap),
	}
}

// read fills p with decoded output. It returns less than len(p) only with
// an error: io.EOF at the clean end of the last member.
func (f *inflater) read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if f.r < f.w {
			k := copy(p[n:], f.win[f.r:f.w])
			f.r += k
			n += k
			continue
		}
		if f.err != nil {
			return n, f.err
		}
		f.step()
	}
	return n, nil
}

// step decodes the next piece of the stream: up to outChunk bytes of
// output, a block header, or a member's header or trailer.
func (f *inflater) step() {
	if f.w >= flushAt {
		// All read: keep windowSize bytes of history and decode after it.
		copy(f.win, f.win[f.w-windowSize:f.w])
		f.member -= f.w - windowSize
		f.w, f.r = windowSize, windowSize
	}
	switch f.state {
	case stateHeader:
		f.err = f.header()
		f.state = stateBlock
		f.member, f.digest, f.size = f.w, 0, 0
	case stateBlock:
		f.err = f.blockHeader()
	case stateStored, stateHuffman:
		w := f.w
		if f.state == stateStored {
			f.err = f.copyStored()
		} else {
			f.err = f.huffman()
		}
		f.digest = crc32.Update(f.digest, crc32.IEEETable, f.win[w:f.w])
		f.size += uint32(f.w - w)
	case stateTrailer:
		f.err = f.trailer()
		f.state = stateNext
	case stateNext:
		// compress/gzip reads another member unless the input ends here.
		if f.more(1) == 0 {
			f.err = f.inputErr(io.EOF)
		}
		f.state = stateHeader
	}
}

// more reads the source until at least n bytes are buffered after pos,
// or it fails, and returns how many are. Like bufio, it takes 100 empty
// reads in a row for io.ErrNoProgress.
func (f *inflater) more(n int) int {
	for empty := 0; len(f.buf)-f.pos < n && f.srcErr == nil; {
		if cap(f.buf)-len(f.buf) < inputChunk/2 && f.pos > 8 {
			// Slide, keeping 8 bytes before pos: the bit buffer may still
			// hold them when a stored block or the trailer gives them
			// back. No caller asks for more than inputChunk/2 bytes, so
			// the buffer always has room for them.
			k := copy(f.buf, f.buf[f.pos-8:])
			f.buf, f.pos = f.buf[:k], 8
		}
		k, err := f.src.Read(f.buf[len(f.buf):cap(f.buf)])
		f.buf = f.buf[:len(f.buf)+k]
		switch {
		case err != nil:
			f.srcErr = err
		case k > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				f.srcErr = io.ErrNoProgress
			}
		}
	}
	return len(f.buf) - f.pos
}

// inputErr is the error for input that ends too soon: eof when the
// source ended (io.EOF where nothing of what was asked for came), or the
// source's own error.
func (f *inflater) inputErr(eof error) error {
	if f.srcErr != io.EOF {
		return f.srcErr
	}
	return eof
}

// take returns the next n bytes of input, with io.ReadFull's errors.
func (f *inflater) take(n int) ([]byte, error) {
	if k := f.more(n); k < n {
		f.pos += k
		if k == 0 {
			return nil, f.inputErr(io.EOF)
		}
		return nil, f.inputErr(io.ErrUnexpectedEOF)
	}
	f.pos += n
	return f.buf[f.pos-n : f.pos], nil
}

// gzip header flags (RFC 1952 section 2.3.1).
const (
	flagHdrCrc  = 1 << 1
	flagExtra   = 1 << 2
	flagName    = 1 << 3
	flagComment = 1 << 4
)

// header reads a gzip member header as compress/gzip does: it checks the
// magic, the method, and the header CRC when there is one, and skips the
// extra field, the name and the comment.
func (f *inflater) header() error {
	b, err := f.take(10)
	if err != nil {
		return err
	}
	if b[0] != gzipHeader[0] || b[1] != gzipHeader[1] || b[2] != gzipHeader[2] {
		return gzip.ErrHeader
	}
	flags := b[3]
	digest := crc32.ChecksumIEEE(b)
	if flags&flagExtra != 0 {
		if b, err = f.take(2); err != nil {
			return noEOF(err)
		}
		digest = crc32.Update(digest, crc32.IEEETable, b)
		for n := int(binary.LittleEndian.Uint16(b)); n > 0; n -= len(b) {
			if b, err = f.take(min(n, inputChunk/2)); err != nil {
				return noEOF(err)
			}
			digest = crc32.Update(digest, crc32.IEEETable, b)
		}
	}
	for _, flag := range [2]byte{flagName, flagComment} {
		if flags&flag == 0 {
			continue
		}
		// A zero-terminated string of at most 512 bytes, the zero
		// included, compress/gzip's limit.
		for i := 0; ; i++ {
			if i == 512 {
				return gzip.ErrHeader
			}
			if b, err = f.take(1); err != nil {
				return noEOF(err)
			}
			digest = crc32.Update(digest, crc32.IEEETable, b)
			if b[0] == 0 {
				break
			}
		}
	}
	if flags&flagHdrCrc != 0 {
		if b, err = f.take(2); err != nil {
			return noEOF(err)
		}
		if binary.LittleEndian.Uint16(b) != uint16(digest) {
			return gzip.ErrHeader
		}
	}
	return nil
}

// trailer gives back the whole bytes the bit buffer holds, then checks the
// member's CRC-32 and size.
func (f *inflater) trailer() error {
	f.align()
	b, err := f.take(8)
	if err != nil {
		return noEOF(err)
	}
	if binary.LittleEndian.Uint32(b) != f.digest || binary.LittleEndian.Uint32(b[4:]) != f.size {
		return gzip.ErrChecksum
	}
	return nil
}

func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// align drops the bits left in the current byte and gives the whole bytes
// still in the bit buffer back to the input.
func (f *inflater) align() {
	f.pos -= int(f.nbits >> 3)
	f.bits, f.nbits = 0, 0
}

// refill tops the bit buffer up to at least 56 bits, or to the end of the
// input: 8 bytes at a time while they are there, then one at a time.
func (f *inflater) refill() {
	if f.nbits >= 56 {
		return
	}
	if f.pos+8 > len(f.buf) {
		f.more(8)
	}
	if f.pos+8 <= len(f.buf) {
		f.bits |= binary.LittleEndian.Uint64(f.buf[f.pos:]) << f.nbits
		f.pos += int(63-f.nbits) >> 3
		f.nbits |= 56
		return
	}
	for f.nbits <= 56 && f.pos < len(f.buf) {
		f.bits |= uint64(f.buf[f.pos]) << f.nbits
		f.pos++
		f.nbits += 8
	}
}

// need is refill for a read of n bits: it fails as compress/flate does
// when the input ends before them.
func (f *inflater) need(n uint) error {
	f.refill()
	if f.nbits < n {
		return f.inputErr(io.ErrUnexpectedEOF)
	}
	return nil
}

// getBits consumes n bits the bit buffer holds.
func (f *inflater) getBits(n uint) uint64 {
	v := f.bits & (1<<n - 1)
	f.bits >>= n
	f.nbits -= n
	return v
}

// symbol decodes one code of t, asking for input as compress/flate's
// huffSym does: t.min bits before the lookup, then the code's length.
func (f *inflater) symbol(t *huffTable) (uint32, error) {
	if err := f.need(t.min); err != nil {
		return 0, err
	}
	e := t.lookup(f.bits)
	n := uint(e & entryLenMask)
	if n == 0 {
		return 0, errCorrupt
	}
	if n > f.nbits {
		return 0, f.inputErr(io.ErrUnexpectedEOF)
	}
	f.getBits(n)
	return e, nil
}

// blockHeader reads a block's type, and its code lengths for a dynamic
// block.
func (f *inflater) blockHeader() error {
	if err := f.need(3); err != nil {
		return err
	}
	f.final = f.getBits(1) == 1
	switch f.getBits(2) {
	case 0:
		f.align()
		b, err := f.take(4)
		if err != nil {
			return noEOF(err)
		}
		n := binary.LittleEndian.Uint16(b)
		if n != ^binary.LittleEndian.Uint16(b[2:]) {
			return errCorrupt
		}
		f.stored = int(n)
		f.state = stateStored
	case 1:
		f.lit, f.dist = fixedLit(), fixedDist()
		f.state = stateHuffman
	case 2:
		if err := f.dynamicHeader(); err != nil {
			return err
		}
		f.lit, f.dist = &f.dynLit, &f.dynDist
		f.state = stateHuffman
	default:
		return errCorrupt
	}
	return nil
}

// dynamicHeader reads a dynamic block's code lengths and builds its
// tables, with compress/flate's checks in compress/flate's order.
func (f *inflater) dynamicHeader() error {
	if err := f.need(5 + 5 + 4); err != nil {
		return err
	}
	nlit := int(f.getBits(5)) + lengthCodesStart
	if nlit > maxNumLit {
		return errCorrupt
	}
	ndist := int(f.getBits(5)) + 1
	if ndist > offsetCodeCount {
		return errCorrupt
	}
	nclen := int(f.getBits(4)) + 4
	var clen [codegenCodeCount]uint8
	for _, sym := range codegenOrder[:nclen] {
		if err := f.need(3); err != nil {
			return err
		}
		clen[sym] = uint8(f.getBits(3))
	}
	if !f.codeLen.init(clen[:], codeLenValues) {
		return errCorrupt
	}
	lengths := f.lengths[:nlit+ndist]
	for i := 0; i < len(lengths); {
		e, err := f.symbol(&f.codeLen)
		if err != nil {
			return err
		}
		sym := e >> entryValue
		if sym < 16 {
			lengths[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var nb uint
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCorrupt
			}
			rep, nb, v = 3, 2, lengths[i-1]
		case 17:
			rep, nb = 3, 3
		default:
			rep, nb = 11, 7
		}
		if err := f.need(nb); err != nil {
			return err
		}
		rep += int(f.getBits(nb))
		if i+rep > len(lengths) {
			return errCorrupt
		}
		for ; rep > 0; rep-- {
			lengths[i] = v
			i++
		}
	}
	if !f.dynLit.init(lengths[:nlit], litValues) || !f.dynDist.init(lengths[nlit:], distValues) {
		return errCorrupt
	}
	f.dynLit.min = max(f.dynLit.min, uint(lengths[endBlockMarker]))
	return nil
}

// copyStored copies a stored block's bytes to the output, up to flushAt.
func (f *inflater) copyStored() error {
	for f.stored > 0 && f.w < flushAt {
		k := min(f.stored, flushAt-f.w, f.more(1))
		if k == 0 {
			return f.inputErr(io.ErrUnexpectedEOF)
		}
		copy(f.win[f.w:], f.buf[f.pos:f.pos+k])
		f.pos += k
		f.w += k
		f.stored -= k
	}
	if f.stored == 0 {
		f.endBlock()
	}
	return nil
}

// endBlock moves on after a block: to the next one, or to the trailer
// after the member's last.
func (f *inflater) endBlock() {
	f.state = stateBlock
	if f.final {
		f.state = stateTrailer
	}
}

// huffman decodes a compressed block until the output reaches flushAt or
// the block ends. While 8 bytes of input are left it runs the fast loop,
// which holds the decoder's state in locals and needs no bounds on the
// input per symbol: after a refill the bit buffer holds at least 56 bits,
// and a length code, its extra bits, a distance code and its extra bits
// take at most 15+5+15+13 = 48. Past that it decodes one symbol at a time
// through the slow path.
func (f *inflater) huffman() error {
	for f.w < flushAt {
		if f.pos+8 > len(f.buf) {
			f.more(8)
		}
		if f.pos+8 <= len(f.buf) {
			if done, err := f.huffmanFast(); done || err != nil {
				return err
			}
			continue
		}
		if done, err := f.huffmanSlow(); done || err != nil {
			return err
		}
	}
	return nil
}

// huffmanFast is the fast loop. It reports whether the block ended.
func (f *inflater) huffmanFast() (ended bool, err error) {
	in, pos := f.buf, f.pos
	b, nb := f.bits, f.nbits
	out, w, member := f.win, f.w, f.member
	lit, dist := f.lit, f.dist
	for pos+8 <= len(in) && w < flushAt {
		b |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
		pos += int(63-nb) >> 3
		nb |= 56

		e := lit.root[b&rootMask]
		if e&entryLink != 0 {
			e = lit.sub[e>>entryValue+uint32(b>>rootBits)&(1<<(e>>entryExtra&0xf)-1)]
		}
		n := uint(e & entryLenMask)
		b >>= n
		nb -= n
		if e&entryLit != 0 {
			out[w] = byte(e >> entryValue)
			w++
			continue
		}
		if e&(entryEOB|entryBad) != 0 || n == 0 {
			ended = e&entryEOB != 0 && n != 0
			if !ended {
				err = errCorrupt
			}
			break
		}
		xb := uint(e >> entryExtra & 0xf)
		length := int(e>>entryValue) + int(b&(1<<xb-1))
		b >>= xb
		nb -= xb

		e = dist.root[b&rootMask]
		if e&entryLink != 0 {
			e = dist.sub[e>>entryValue+uint32(b>>rootBits)&(1<<(e>>entryExtra&0xf)-1)]
		}
		n = uint(e & entryLenMask)
		b >>= n
		nb -= n
		xb = uint(e >> entryExtra & 0xf)
		d := int(e>>entryValue) + int(b&(1<<xb-1))
		b >>= xb
		nb -= xb
		if n == 0 || e&entryBad != 0 || d > w-member {
			err = errCorrupt
			break
		}
		copyMatch(out, w, d, length)
		w += length
	}
	f.pos, f.bits, f.nbits, f.w = pos, b, nb, w
	if ended {
		f.endBlock()
	}
	return ended, err
}

// huffmanSlow decodes one literal, match or end of block, reading input
// as compress/flate does. It reports whether the block ended.
func (f *inflater) huffmanSlow() (bool, error) {
	e, err := f.symbol(f.lit)
	if err != nil {
		return false, err
	}
	switch {
	case e&entryLit != 0:
		f.win[f.w] = byte(e >> entryValue)
		f.w++
		return false, nil
	case e&entryEOB != 0:
		f.endBlock()
		return true, nil
	case e&entryBad != 0:
		return false, errCorrupt
	}
	xb := uint(e >> entryExtra & 0xf)
	if err := f.need(xb); err != nil {
		return false, err
	}
	length := int(e>>entryValue) + int(f.getBits(xb))
	if e, err = f.symbol(f.dist); err != nil {
		return false, err
	}
	if e&entryBad != 0 {
		return false, errCorrupt
	}
	xb = uint(e >> entryExtra & 0xf)
	if err := f.need(xb); err != nil {
		return false, err
	}
	d := int(e>>entryValue) + int(f.getBits(xb))
	if d > f.w-f.member {
		return false, errCorrupt
	}
	copyMatch(f.win, f.w, d, length)
	f.w += length
	return false, nil
}

// copyMatch copies length bytes from d back to out[w:]. It may write up
// to 7 bytes past them.
func copyMatch(out []byte, w, d, length int) {
	if d >= 8 {
		// Each 8-byte load reads bytes already written.
		for k := 0; k < length; k += 8 {
			binary.LittleEndian.PutUint64(out[w+k:], binary.LittleEndian.Uint64(out[w-d+k:]))
		}
		return
	}
	// A short period: copy what is there, doubling it each time.
	for k := 0; k < length; {
		k += copy(out[w+k:w+length], out[w-d:w+k])
	}
}
