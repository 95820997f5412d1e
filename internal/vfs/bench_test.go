package vfs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

// benchFS builds a one-file FS for read-path benchmarks.
func benchFS(b *testing.B, size int64) (*FS, *Mount) {
	b.Helper()
	fs := New()
	dev := storage.NewFlash("bench0", storage.DefaultSSDParams())
	m := fs.AddMount(&Mount{Prefix: "/bench", Dev: dev})
	if _, err := fs.CreateFile("/bench/f", size); err != nil {
		b.Fatal(err)
	}
	return fs, m
}

// BenchmarkFillContent measures procedural content generation alone, the
// hot path behind every materializing read.
func BenchmarkFillContent(b *testing.B) {
	for _, size := range []int{4 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			fs, _ := benchFS(b, 1<<20)
			ino, _ := fs.Lookup("/bench/f")
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ino.fillContent(buf, 0)
			}
		})
	}
}

// BenchmarkVFSPread measures one whole-file 1 MiB pread end to end,
// count-only (buf=nil) and materializing (buf=chunk).
func BenchmarkVFSPread(b *testing.B) {
	const fileSize = 1 << 20
	const chunk = 1 << 20
	for _, bc := range []struct {
		name string
		buf  []byte
	}{{"buf=nil", nil}, {"buf=chunk", make([]byte, chunk)}} {
		b.Run(bc.name, func(b *testing.B) {
			fs, _ := benchFS(b, fileSize)
			var err error
			b.SetBytes(fileSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh kernel per iteration keeps virtual time bounded;
				// thread setup is negligible next to the 1MiB read.
				k := sim.NewKernel()
				k.Spawn("bench", func(t *sim.Thread) {
					fd, e := fs.Open(t, "/bench/f", O_RDONLY)
					if e != nil {
						err = e
						return
					}
					_, err = fs.Pread(t, fd, bc.buf, chunk, 0)
					fs.Close(t, fd)
				})
				if e := k.Run(); e != nil {
					err = e
				}
			}
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkStdioFwriteCheckpoint measures the STDIO write path with the
// shape of one checkpoint tensor: fopen "w", a 256 B header, four 2 MiB
// fwrites (each past the stream buffer, so written through) and fclose.
// Writes are counted, not stored, so bytes/op stays flat in the payload.
func BenchmarkStdioFwriteCheckpoint(b *testing.B) {
	const chunk = 2 << 20
	fs, _ := benchFS(b, 0)
	stdio := NewStdioNode(fs, 0)
	payload := make([]byte, chunk)
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		k.Spawn("bench", func(t *sim.Thread) {
			st, e := stdio.Fopen(t, "/bench/ckpt", "w")
			if e != nil {
				err = e
				return
			}
			if _, e := stdio.Fwrite(t, st, payload[:256]); e != nil {
				err = e
			}
			for j := 0; j < 4; j++ {
				if _, e := stdio.Fwrite(t, st, payload); e != nil {
					err = e
				}
			}
			if e := stdio.Fclose(t, st); e != nil {
				err = e
			}
		})
		if e := k.Run(); e != nil {
			err = e
		}
	}
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
}
