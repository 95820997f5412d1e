package proto

import "fmt"

// DarshanProfile is the tf-Darshan analysis message exported for the
// TensorBoard profile plugin (the profile_analysis.proto analog in the
// paper's Fig. 1). Field numbers are part of the wire contract.
type DarshanProfile struct {
	StartTime float64 // 1: session start, seconds since job start
	EndTime   float64 // 2

	BytesRead    int64 // 3
	BytesWritten int64 // 4
	Opens        int64 // 5
	Reads        int64 // 6
	Writes       int64 // 7
	Seeks        int64 // 8
	Stats        int64 // 9

	ReadBandwidthMBps  float64 // 10
	WriteBandwidthMBps float64 // 11

	ZeroReads   int64 // 12
	SeqReads    int64 // 13
	ConsecReads int64 // 14

	ReadSizeBuckets  []int64 // 15 (repeated, 10 entries)
	WriteSizeBuckets []int64 // 16
	FileSizeBuckets  []int64 // 17

	FilesAccessed int64 // 18

	StdioOpens        int64 // 19
	StdioWrites       int64 // 20
	StdioBytesWritten int64 // 21
	StdioReads        int64 // 22
	StdioBytesRead    int64 // 23

	Files []FileProfile // 24 (repeated message)
}

// FileProfile is the per-file row of the analysis.
type FileProfile struct {
	RecordID  uint64  // 1
	Name      string  // 2
	Opens     int64   // 3
	Reads     int64   // 4
	Writes    int64   // 5
	BytesRead int64   // 6
	ReadTime  float64 // 7 (seconds)
	Size      int64   // 8
}

// Marshal encodes the message in one buffer of its exact encoded size:
// each file's key, length and fields are written in place, with no nested
// encoder to copy from.
func (p *DarshanProfile) Marshal() []byte {
	e := Encoder{buf: make([]byte, 0, p.size())}
	e.Double(1, p.StartTime)
	e.Double(2, p.EndTime)
	e.Int64(3, p.BytesRead)
	e.Int64(4, p.BytesWritten)
	e.Int64(5, p.Opens)
	e.Int64(6, p.Reads)
	e.Int64(7, p.Writes)
	e.Int64(8, p.Seeks)
	e.Int64(9, p.Stats)
	e.Double(10, p.ReadBandwidthMBps)
	e.Double(11, p.WriteBandwidthMBps)
	e.Int64(12, p.ZeroReads)
	e.Int64(13, p.SeqReads)
	e.Int64(14, p.ConsecReads)
	for _, v := range p.ReadSizeBuckets {
		e.Int64(15, v)
	}
	for _, v := range p.WriteSizeBuckets {
		e.Int64(16, v)
	}
	for _, v := range p.FileSizeBuckets {
		e.Int64(17, v)
	}
	e.Int64(18, p.FilesAccessed)
	e.Int64(19, p.StdioOpens)
	e.Int64(20, p.StdioWrites)
	e.Int64(21, p.StdioBytesWritten)
	e.Int64(22, p.StdioReads)
	e.Int64(23, p.StdioBytesRead)
	for i := range p.Files {
		f := &p.Files[i]
		e.key(24, WireBytes)
		e.varint(uint64(f.size()))
		f.marshal(&e)
	}
	return e.buf
}

// size returns the encoded length of the message.
func (p *DarshanProfile) size() int {
	n := sizeDouble(1) + sizeDouble(2) + sizeDouble(10) + sizeDouble(11) +
		sizeInt64(3, p.BytesRead) + sizeInt64(4, p.BytesWritten) +
		sizeInt64(5, p.Opens) + sizeInt64(6, p.Reads) + sizeInt64(7, p.Writes) +
		sizeInt64(8, p.Seeks) + sizeInt64(9, p.Stats) +
		sizeInt64(12, p.ZeroReads) + sizeInt64(13, p.SeqReads) + sizeInt64(14, p.ConsecReads) +
		sizeInt64(18, p.FilesAccessed) +
		sizeInt64(19, p.StdioOpens) + sizeInt64(20, p.StdioWrites) + sizeInt64(21, p.StdioBytesWritten) +
		sizeInt64(22, p.StdioReads) + sizeInt64(23, p.StdioBytesRead)
	for _, v := range p.ReadSizeBuckets {
		n += sizeInt64(15, v)
	}
	for _, v := range p.WriteSizeBuckets {
		n += sizeInt64(16, v)
	}
	for _, v := range p.FileSizeBuckets {
		n += sizeInt64(17, v)
	}
	for i := range p.Files {
		n += sizeBytes(24, p.Files[i].size())
	}
	return n
}

func (f *FileProfile) marshal(e *Encoder) {
	e.Uint64(1, f.RecordID)
	e.String(2, f.Name)
	e.Int64(3, f.Opens)
	e.Int64(4, f.Reads)
	e.Int64(5, f.Writes)
	e.Int64(6, f.BytesRead)
	e.Double(7, f.ReadTime)
	e.Int64(8, f.Size)
}

// size returns the encoded length of the embedded message, without its
// key and length prefix.
func (f *FileProfile) size() int {
	return sizeKey(1) + sizeVarint(f.RecordID) +
		sizeBytes(2, len(f.Name)) +
		sizeInt64(3, f.Opens) + sizeInt64(4, f.Reads) + sizeInt64(5, f.Writes) +
		sizeInt64(6, f.BytesRead) + sizeDouble(7) + sizeInt64(8, f.Size)
}

// UnmarshalDarshanProfile decodes a message produced by Marshal, skipping
// unknown fields for forward compatibility.
func UnmarshalDarshanProfile(buf []byte) (*DarshanProfile, error) {
	p := &DarshanProfile{}
	d := NewDecoder(buf)
	for d.More() {
		field, wire, err := d.Key()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1:
			p.StartTime, err = d.Double()
		case 2:
			p.EndTime, err = d.Double()
		case 3:
			p.BytesRead, err = d.Int64()
		case 4:
			p.BytesWritten, err = d.Int64()
		case 5:
			p.Opens, err = d.Int64()
		case 6:
			p.Reads, err = d.Int64()
		case 7:
			p.Writes, err = d.Int64()
		case 8:
			p.Seeks, err = d.Int64()
		case 9:
			p.Stats, err = d.Int64()
		case 10:
			p.ReadBandwidthMBps, err = d.Double()
		case 11:
			p.WriteBandwidthMBps, err = d.Double()
		case 12:
			p.ZeroReads, err = d.Int64()
		case 13:
			p.SeqReads, err = d.Int64()
		case 14:
			p.ConsecReads, err = d.Int64()
		case 15:
			var v int64
			v, err = d.Int64()
			p.ReadSizeBuckets = append(p.ReadSizeBuckets, v)
		case 16:
			var v int64
			v, err = d.Int64()
			p.WriteSizeBuckets = append(p.WriteSizeBuckets, v)
		case 17:
			var v int64
			v, err = d.Int64()
			p.FileSizeBuckets = append(p.FileSizeBuckets, v)
		case 18:
			p.FilesAccessed, err = d.Int64()
		case 19:
			p.StdioOpens, err = d.Int64()
		case 20:
			p.StdioWrites, err = d.Int64()
		case 21:
			p.StdioBytesWritten, err = d.Int64()
		case 22:
			p.StdioReads, err = d.Int64()
		case 23:
			p.StdioBytesRead, err = d.Int64()
		case 24:
			var b []byte
			b, err = d.Bytes()
			if err == nil {
				var f FileProfile
				if err = f.unmarshal(b); err == nil {
					p.Files = append(p.Files, f)
				}
			}
		default:
			err = d.Skip(wire)
		}
		if err != nil {
			return nil, fmt.Errorf("proto: field %d: %w", field, err)
		}
	}
	return p, nil
}

func (f *FileProfile) unmarshal(buf []byte) error {
	d := NewDecoder(buf)
	for d.More() {
		field, wire, err := d.Key()
		if err != nil {
			return err
		}
		switch field {
		case 1:
			f.RecordID, err = d.Uint64()
		case 2:
			f.Name, err = d.StringField()
		case 3:
			f.Opens, err = d.Int64()
		case 4:
			f.Reads, err = d.Int64()
		case 5:
			f.Writes, err = d.Int64()
		case 6:
			f.BytesRead, err = d.Int64()
		case 7:
			f.ReadTime, err = d.Double()
		case 8:
			f.Size, err = d.Int64()
		default:
			err = d.Skip(wire)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
