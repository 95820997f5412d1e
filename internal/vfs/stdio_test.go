package vfs

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestFwriteBuffersSmallWrites(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, err := stdio.Fopen(th, "/data/log.txt", "w")
		if err != nil {
			t.Fatal(err)
		}
		before := hdd.Counters().WriteOps
		for i := 0; i < 10; i++ {
			if n, err := stdio.Fwrite(th, st, make([]byte, 100)); n != 100 || err != nil {
				t.Fatalf("Fwrite = %d, %v", n, err)
			}
		}
		if hdd.Counters().WriteOps != before {
			t.Fatal("small fwrites reached the device before a flush")
		}
		if err := stdio.Fclose(th, st); err != nil {
			t.Fatal(err)
		}
		if hdd.Counters().WriteOps != before+1 {
			t.Fatalf("close should flush exactly once, writes = %d", hdd.Counters().WriteOps-before)
		}
	})
	ino, _ := fs.Lookup("/data/log.txt")
	if ino.Size != 1000 {
		t.Fatalf("size = %d, want 1000", ino.Size)
	}
}

func TestFwriteLargeWritesBypassBuffer(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/data/ckpt", "w")
		big := make([]byte, 2*StdioBufSize)
		stdio.Fwrite(th, st, big)
		if got := hdd.Counters().WriteOps; got != 1 {
			t.Fatalf("device writes = %d, want 1 (write-through)", got)
		}
		stdio.Fclose(th, st)
	})
}

func TestFreadNilBufferAdvancesLikeRealBuffer(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	fs.CreateFile("/data/fd", 10)
	for _, buf := range [][]byte{nil, make([]byte, 4)} {
		runSim(t, func(th *sim.Thread) {
			st, err := stdio.Fopen(th, "/data/fd", "r")
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []int{4, 4, 2, 0} {
				if n, err := stdio.Fread(th, st, buf, 4); err != nil || n != want {
					t.Fatalf("buf len %d: Fread = %d, %v (want %d)", len(buf), n, err, want)
				}
			}
			if off := stdio.Ftell(st); off != 10 {
				t.Fatalf("buf len %d: offset after reads = %d, want 10", len(buf), off)
			}
			if _, err := stdio.Fread(th, st, buf, -1); !errors.Is(err, ErrInvalid) {
				t.Fatalf("buf len %d: negative count error = %v", len(buf), err)
			}
			stdio.Fclose(th, st)
		})
	}
}

// An fwrite/fread round trip returns the written count in order and then
// EOF; the bytes read are the inode's procedural content at each offset.
func TestFreadRoundTrip(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/data/w", "w")
		if n, err := stdio.Fwrite(th, st, []byte("abcdefgh")); n != 8 || err != nil {
			t.Fatalf("Fwrite = %d, %v", n, err)
		}
		stdio.Fclose(th, st)
		ino, _ := fs.Lookup("/data/w")
		if ino.Size != 8 {
			t.Fatalf("size = %d, want 8", ino.Size)
		}

		st, err := stdio.Fopen(th, "/data/w", "r")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		for _, off := range []int64{0, 4} {
			if n, _ := stdio.Fread(th, st, buf, int64(len(buf))); n != 4 {
				t.Fatalf("Fread at %d = %d", off, n)
			}
			wantProcedural(t, ino, off, buf)
		}
		if n, _ := stdio.Fread(th, st, buf, int64(len(buf))); n != 0 {
			t.Fatalf("Fread at EOF = %d", n)
		}
		stdio.Fclose(th, st)
	})
}

func TestFopenModes(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	fs.CreateFile("/data/exists", 50)
	runSim(t, func(th *sim.Thread) {
		if _, err := stdio.Fopen(th, "/data/nope", "r"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("r on missing = %v", err)
		}
		st, err := stdio.Fopen(th, "/data/exists", "a")
		if err != nil {
			t.Fatal(err)
		}
		if got := stdio.Ftell(st); got != 50 {
			t.Fatalf("append offset = %d", got)
		}
		stdio.Fwrite(th, st, []byte("xy"))
		stdio.Fclose(th, st)
		ino, _ := fs.Lookup("/data/exists")
		if ino.Size != 52 {
			t.Fatalf("size after append = %d", ino.Size)
		}
		// "w" truncates.
		st, _ = stdio.Fopen(th, "/data/exists", "w")
		stdio.Fclose(th, st)
		ino, _ = fs.Lookup("/data/exists")
		if ino.Size != 0 {
			t.Fatalf("size after w = %d", ino.Size)
		}
		if _, err := stdio.Fopen(th, "/data/exists", "?"); !errors.Is(err, ErrInvalid) {
			t.Fatalf("bad mode = %v", err)
		}
	})
}

// Fread flushes buffered output first, so a read on a "w+" stream sees
// the written size: at the end of what was written it is at EOF.
func TestFreadFlushesBufferedOutput(t *testing.T) {
	fs, _, _, hdd, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/data/rw", "w+")
		stdio.Fwrite(th, st, []byte("0123456789"))
		if got := hdd.Counters().WriteOps; got != 0 {
			t.Fatalf("device writes before fread = %d, want 0 (buffered)", got)
		}
		buf := make([]byte, 3)
		if n, err := stdio.Fread(th, st, buf, int64(len(buf))); n != 0 || err != nil {
			t.Fatalf("fread at end of written data = %d, %v; want EOF", n, err)
		}
		if got := hdd.Counters().WriteOps; got != 1 {
			t.Fatalf("device writes after fread = %d, want 1 (flushed)", got)
		}
		ino, _ := fs.Lookup("/data/rw")
		if ino.Size != 10 {
			t.Fatalf("size after fread = %d, want 10", ino.Size)
		}
		if off := stdio.Ftell(st); off != 10 {
			t.Fatalf("offset after fread = %d, want 10", off)
		}
		stdio.Fclose(th, st)
	})
}

func TestStreamFlushCountTracksBufferFills(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/data/fills", "w")
		chunk := make([]byte, StdioBufSize/2)
		for i := 0; i < 6; i++ { // 3 buffer fills
			stdio.Fwrite(th, st, chunk)
		}
		stdio.Fclose(th, st)
		if st.Flushes != 3 {
			t.Fatalf("flushes = %d, want 3", st.Flushes)
		}
	})
}

func TestClosedStreamOperationsFail(t *testing.T) {
	fs, _, _, _, _ := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/data/c", "w")
		stdio.Fclose(th, st)
		if _, err := stdio.Fwrite(th, st, []byte("x")); !errors.Is(err, ErrBadFD) {
			t.Fatalf("fwrite on closed = %v", err)
		}
		if err := stdio.Fclose(th, st); !errors.Is(err, ErrBadFD) {
			t.Fatalf("double fclose = %v", err)
		}
	})
}

func TestStdioWritesLandOnCorrectDevice(t *testing.T) {
	fs, _, _, _, opt := testFS()
	stdio := NewStdioNode(fs, 0)
	runSim(t, func(th *sim.Thread) {
		st, _ := stdio.Fopen(th, "/fast/f", "w")
		stdio.Fwrite(th, st, make([]byte, 2*StdioBufSize))
		stdio.Fclose(th, st)
	})
	if opt.Counters().BytesWritten != 2*int64(StdioBufSize) {
		t.Fatalf("optane bytes written = %d", opt.Counters().BytesWritten)
	}
	_ = storage.KiB
}
