package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"

	"repro/internal/proto"
)

// layers are the repo modules CPU samples are attributed to, in report
// order. bench is the benchmark's own code (hashing and checks).
var layers = []string{
	"sim", "storage", "vfs", "libc",
	"darshan.wrap", "darshan.merge", "darshan.codec",
	"tf.tfdata", "tf.tfio", "tf.keras", "tf.profiler",
	"core", "tensorboard",
	"distributed", "prefetch", "dataservice",
	"setup", "gc", "runtime", "bench",
}

// packageLayers maps a package under repro/internal to its layer. The
// helper packages stats, proto, trace and tf (the shared Env and GPU) are
// absent on purpose: their samples belong to the module that called them.
var packageLayers = map[string]string{
	"sim":         "sim",
	"storage":     "storage",
	"vfs":         "vfs",
	"libc":        "libc",
	"dynload":     "libc",
	"darshan":     "darshan.wrap",
	"tf/tfdata":   "tf.tfdata",
	"tf/tfio":     "tf.tfio",
	"tf/keras":    "tf.keras",
	"tf/profiler": "tf.profiler",
	"core":        "core",
	"tensorboard": "tensorboard",
	"distributed": "distributed",
	"prefetch":    "prefetch",
	"dataservice": "dataservice",
	"platform":    "setup",
	"workload":    "setup",
}

// frame is one function on a sampled stack.
type frame struct {
	fn   string // e.g. repro/internal/darshan.(*Runtime).read
	file string
}

const internalPrefix = "repro/internal/"

// internalPackage returns the package of a repro/internal function, e.g.
// tf/tfdata for repro/internal/tf/tfdata.(*Iterator).Next.
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg, true
}

// isCodec reports whether f belongs to the Darshan log encoder or decoder,
// which live in log.go and stream.go.
func isCodec(f frame) bool {
	return strings.HasSuffix(f.file, "internal/darshan/log.go") || strings.HasSuffix(f.file, "internal/darshan/stream.go")
}

// classify assigns a stack, innermost frame first, to a layer. The rules
// apply in order: darshan.Merge anywhere on the stack; a log encoder or
// decoder anywhere; the innermost repro module frame, which also takes the
// stdlib and runtime frames below it; a GC worker; the benchmark's own
// code; everything else is the Go runtime.
func classify(stack []frame) string {
	for _, f := range stack {
		if f.fn == internalPrefix+"darshan.Merge" || strings.HasPrefix(f.fn, internalPrefix+"darshan.Merge.") {
			return "darshan.merge"
		}
	}
	for _, f := range stack {
		if isCodec(f) {
			return "darshan.codec"
		}
	}
	for _, f := range stack {
		if pkg, ok := internalPackage(f.fn); ok {
			if l, ok := packageLayers[pkg]; ok {
				return l
			}
		}
	}
	for _, f := range stack {
		if f.fn == "runtime.gcBgMarkWorker" {
			return "gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") {
			return "bench"
		}
	}
	return "runtime"
}

// attributeProfile decodes a gzipped pprof CPU profile and counts its
// samples per layer.
func attributeProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	counts := make(map[string]int64, len(layers))
	for _, s := range p.samples {
		stack := make([]frame, 0, 32)
		for _, loc := range s.locations {
			for _, fid := range p.locations[loc] {
				fn := p.functions[fid]
				stack = append(stack, frame{fn: p.str(fn.name), file: p.str(fn.file)})
			}
		}
		counts[classify(stack)] += s.count
	}
	return counts, nil
}

// profile is the part of profile.proto the attribution reads.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]function
	strings   []string
}

type sample struct {
	locations []uint64 // innermost first
	count     int64    // the first sample value: the number of samples
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profileSample    = 2
	profileLocation  = 4
	profileFunction  = 5
	profileStrings   = 6
	sampleLocationID = 1
	sampleValue      = 2
	locationID       = 1
	locationLine     = 4
	lineFunctionID   = 1
	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

func decodeProfile(buf []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	err := eachField(buf, func(field int, d *proto.Decoder, wire int) error {
		if wire != proto.WireBytes {
			return d.Skip(wire)
		}
		b, err := d.Bytes()
		if err != nil {
			return err
		}
		switch field {
		case profileSample:
			s, err := decodeSample(b)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case profileLocation:
			return decodeLocation(b, p.locations)
		case profileFunction:
			return decodeFunction(b, p.functions)
		case profileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	return p, err
}

func decodeSample(b []byte) (sample, error) {
	var s sample
	var values []uint64
	err := eachField(b, func(field int, d *proto.Decoder, wire int) error {
		switch field {
		case sampleLocationID:
			ids, err := uints(d, wire)
			s.locations = append(s.locations, ids...)
			return err
		case sampleValue:
			vs, err := uints(d, wire)
			values = append(values, vs...)
			return err
		}
		return d.Skip(wire)
	})
	if err == nil && len(values) == 0 {
		err = fmt.Errorf("sample without values")
	}
	if err != nil {
		return s, err
	}
	s.count = int64(values[0])
	return s, nil
}

func decodeLocation(b []byte, into map[uint64][]uint64) error {
	var id uint64
	var fns []uint64
	err := eachField(b, func(field int, d *proto.Decoder, wire int) error {
		switch {
		case field == locationID && wire == proto.WireVarint:
			v, err := d.Uint64()
			id = v
			return err
		case field == locationLine && wire == proto.WireBytes:
			line, err := d.Bytes()
			if err != nil {
				return err
			}
			return eachField(line, func(field int, d *proto.Decoder, wire int) error {
				if field == lineFunctionID && wire == proto.WireVarint {
					v, err := d.Uint64()
					fns = append(fns, v)
					return err
				}
				return d.Skip(wire)
			})
		}
		return d.Skip(wire)
	})
	into[id] = fns
	return err
}

func decodeFunction(b []byte, into map[uint64]function) error {
	var id uint64
	var fn function
	err := eachField(b, func(field int, d *proto.Decoder, wire int) error {
		if wire != proto.WireVarint {
			return d.Skip(wire)
		}
		v, err := d.Int64()
		switch field {
		case functionID:
			id = uint64(v)
		case functionName:
			fn.name = v
		case functionFilename:
			fn.file = v
		}
		return err
	})
	into[id] = fn
	return err
}

// eachField calls fn for every field of a message; fn must consume the
// field's payload.
func eachField(buf []byte, fn func(field int, d *proto.Decoder, wire int) error) error {
	d := proto.NewDecoder(buf)
	for d.More() {
		field, wire, err := d.Key()
		if err != nil {
			return err
		}
		if err := fn(field, d, wire); err != nil {
			return err
		}
	}
	return nil
}

// uints reads a repeated varint field in either packed or unpacked form.
func uints(d *proto.Decoder, wire int) ([]uint64, error) {
	if wire == proto.WireVarint {
		v, err := d.Uint64()
		return []uint64{v}, err
	}
	if wire != proto.WireBytes {
		return nil, d.Skip(wire)
	}
	b, err := d.Bytes()
	if err != nil {
		return nil, err
	}
	var out []uint64
	pd := proto.NewDecoder(b)
	for pd.More() {
		v, err := pd.Uint64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
