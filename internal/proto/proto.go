// Package proto implements the protocol-buffers wire format (proto3
// scalar subset: varints, 64-bit fixed, length-delimited fields) with no
// external dependencies, plus the profile message schemas tf-Darshan
// exports for TensorBoard — the counterpart of the profile_analysis.proto
// path in the paper's Fig. 1.
package proto

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Wire types.
const (
	WireVarint  = 0
	WireFixed64 = 1
	WireBytes   = 2
)

// ErrTruncated reports a message ending mid-field.
var ErrTruncated = errors.New("proto: truncated message")

// Encoder appends wire-format fields to a buffer.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message.
func (e *Encoder) Bytes() []byte { return e.buf }

func (e *Encoder) key(field int, wire int) {
	e.varint(uint64(field)<<3 | uint64(wire))
}

func (e *Encoder) varint(v uint64) {
	for v >= 0x80 {
		e.buf = append(e.buf, byte(v)|0x80)
		v >>= 7
	}
	e.buf = append(e.buf, byte(v))
}

// Uint64 writes a varint field.
func (e *Encoder) Uint64(field int, v uint64) {
	e.key(field, WireVarint)
	e.varint(v)
}

// Int64 writes a varint field (two's complement, as proto3 int64).
func (e *Encoder) Int64(field int, v int64) { e.Uint64(field, uint64(v)) }

// Double writes a fixed64 IEEE-754 field.
func (e *Encoder) Double(field int, v float64) {
	e.key(field, WireFixed64)
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		e.buf = append(e.buf, byte(bits>>(8*i)))
	}
}

// String writes a length-delimited string field.
func (e *Encoder) String(field int, s string) {
	e.key(field, WireBytes)
	e.varint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// BytesField writes a length-delimited bytes field.
func (e *Encoder) BytesField(field int, b []byte) {
	e.key(field, WireBytes)
	e.varint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Message writes an embedded message field.
func (e *Encoder) Message(field int, m *Encoder) {
	e.BytesField(field, m.Bytes())
}

// sizeVarint returns the encoded length of v as a varint: one byte per
// started group of seven bits, and one byte for zero.
func sizeVarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// sizeKey returns the encoded length of a field's key.
func sizeKey(field int) int { return sizeVarint(uint64(field) << 3) }

// sizeInt64 returns the encoded length of an Int64 field.
func sizeInt64(field int, v int64) int { return sizeKey(field) + sizeVarint(uint64(v)) }

// sizeDouble returns the encoded length of a Double field.
func sizeDouble(field int) int { return sizeKey(field) + 8 }

// sizeBytes returns the encoded length of a length-delimited field with
// an n-byte payload.
func sizeBytes(field int, n int) int { return sizeKey(field) + sizeVarint(uint64(n)) + n }

// Decoder reads wire-format fields from a buffer.
type Decoder struct {
	buf []byte
	pos int
}

// NewDecoder returns a decoder over buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// More reports whether fields remain.
func (d *Decoder) More() bool { return d.pos < len(d.buf) }

func (d *Decoder) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if d.pos >= len(d.buf) {
			return 0, ErrTruncated
		}
		b := d.buf[d.pos]
		d.pos++
		v |= uint64(b&0x7F) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("proto: varint overflow")
		}
	}
}

// Key reads the next field's number and wire type.
func (d *Decoder) Key() (field int, wire int, err error) {
	k, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(k >> 3), int(k & 7), nil
}

// Uint64 reads a varint payload.
func (d *Decoder) Uint64() (uint64, error) { return d.varint() }

// Int64 reads a varint payload as int64.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.varint()
	return int64(v), err
}

// Double reads a fixed64 payload.
func (d *Decoder) Double() (float64, error) {
	if d.pos+8 > len(d.buf) {
		return 0, ErrTruncated
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits |= uint64(d.buf[d.pos+i]) << (8 * i)
	}
	d.pos += 8
	return math.Float64frombits(bits), nil
}

// Bytes reads a length-delimited payload.
func (d *Decoder) Bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if d.pos+int(n) > len(d.buf) {
		return nil, ErrTruncated
	}
	b := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// StringField reads a length-delimited payload as a string.
func (d *Decoder) StringField() (string, error) {
	b, err := d.Bytes()
	return string(b), err
}

// Skip consumes a field of the given wire type.
func (d *Decoder) Skip(wire int) error {
	switch wire {
	case WireVarint:
		_, err := d.varint()
		return err
	case WireFixed64:
		if d.pos+8 > len(d.buf) {
			return ErrTruncated
		}
		d.pos += 8
		return nil
	case WireBytes:
		_, err := d.Bytes()
		return err
	default:
		return fmt.Errorf("proto: unsupported wire type %d", wire)
	}
}
