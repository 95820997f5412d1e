package dstat

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/storage"
)

func TestSamplerTracksDeviceActivity(t *testing.T) {
	k := sim.NewKernel()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	s := New([]storage.Device{hdd})
	s.Start(k)
	k.Spawn("reader", func(th *sim.Thread) {
		// ~150MB/s sequential for ~3 virtual seconds.
		pos := int64(0)
		for i := 0; i < 450; i++ {
			hdd.Read(th, pos, 1<<20)
			pos += 1 << 20
		}
		s.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ser := s.ReadMBps["sda"]
	if len(ser.Points) < 2 {
		t.Fatalf("samples = %d", len(ser.Points))
	}
	// Mid-run samples should be near the sequential rate.
	if v := ser.Points[1].V; v < 100 || v > 200 {
		t.Fatalf("sampled bandwidth = %v MB/s, want ~150", v)
	}
	// Timestamps advance by the interval.
	if ser.Points[1].T-ser.Points[0].T != 1.0 {
		t.Fatalf("interval = %v", ser.Points[1].T-ser.Points[0].T)
	}
}

func TestSamplerSeparatesDevices(t *testing.T) {
	k := sim.NewKernel()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	opt := storage.NewFlash("nvme0n1", storage.DefaultOptaneParams())
	s := New([]storage.Device{hdd, opt})
	s.Start(k)
	k.Spawn("w", func(th *sim.Thread) {
		opt.Write(th, 0, 100<<20)
		th.Sleep(2 * sim.Second)
		s.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	var hddW, optW float64
	for _, p := range s.WriteMBps["sda"].Points {
		hddW += p.V
	}
	for _, p := range s.WriteMBps["nvme0n1"].Points {
		optW += p.V
	}
	if hddW != 0 {
		t.Fatalf("HDD writes = %v, want 0", hddW)
	}
	if optW == 0 {
		t.Fatal("optane writes not sampled")
	}
	// The per-interval MiB series (Fig. 12) counts the writes too: 100 MiB
	// in total on the Optane device, none on the HDD.
	var hddMiB, optMiB float64
	for _, p := range s.TotalMiB["sda"].Points {
		hddMiB += p.V
	}
	for _, p := range s.TotalMiB["nvme0n1"].Points {
		optMiB += p.V
	}
	if hddMiB != 0 || optMiB != 100 {
		t.Fatalf("TotalMiB sums: sda %v, nvme0n1 %v; want 0 and 100", hddMiB, optMiB)
	}
}
