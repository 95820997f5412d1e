package tf

import (
	"testing"

	"repro/internal/dynload"
	"repro/internal/libc"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/tf/profiler"
	"repro/internal/vfs"
)

func testEnv() (*sim.Kernel, *Env) {
	k := sim.NewKernel()
	fs := vfs.New()
	hdd := storage.NewHDD("sda", storage.DefaultHDDParams())
	fs.AddMount(&vfs.Mount{Prefix: "/data", Dev: hdd, OpenMetaTrips: 1})
	proc := dynload.NewProcess()
	proc.LinkStartup(nil, libc.NewLibrary(fs))
	env := NewEnv(k, sim.NewCPUSet(4), fs, proc, NewGPU("test-gpu"))
	return k, env
}

func TestDeviceTracerCapturesKernels(t *testing.T) {
	k, env := testEnv()
	var space *profiler.XSpace
	k.Spawn("t", func(th *sim.Thread) {
		if _, err := env.Prof.Start(th); err != nil {
			t.Error(err)
			return
		}
		env.GPU.Launch(th, "conv2d", 5*sim.Millisecond)
		env.GPU.Launch(th, "matmul", 3*sim.Millisecond)
		var err error
		space, err = env.Prof.Stop(th)
		if err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	plane := space.FindPlane(DevicePlaneName)
	if plane == nil {
		t.Fatal("device plane missing")
	}
	if len(plane.Lines) != 1 || len(plane.Lines[0].Events) != 2 {
		t.Fatalf("device events = %+v", plane)
	}
	if plane.Lines[0].Events[0].Name != "conv2d" {
		t.Fatal("kernel name lost")
	}
	if plane.Lines[0].Name != "test-gpu" {
		t.Fatal("gpu name lost")
	}
}

func TestGPUNotTracedOutsideSession(t *testing.T) {
	k, env := testEnv()
	var space *profiler.XSpace
	k.Spawn("t", func(th *sim.Thread) {
		env.GPU.Launch(th, "before", sim.Millisecond)
		env.Prof.Start(th)
		env.GPU.Launch(th, "inside", sim.Millisecond)
		space, _ = env.Prof.Stop(th)
		env.GPU.Launch(th, "after", sim.Millisecond)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	plane := space.FindPlane(DevicePlaneName)
	if got := len(plane.Lines[0].Events); got != 1 {
		t.Fatalf("traced %d kernels, want 1", got)
	}
	if plane.Lines[0].Events[0].Name != "inside" {
		t.Fatal("wrong kernel traced")
	}
	if busy := env.GPU.Station.Busy(k.Now()); busy != 3*sim.Millisecond {
		t.Fatalf("busy = %d", busy)
	}
}

func TestScratchBufReuse(t *testing.T) {
	k, env := testEnv()
	k.Spawn("t", func(th *sim.Thread) {
		a := env.ScratchBuf(th, 1024)
		b := env.ScratchBuf(th, 512)
		if &a[0] != &b[0] {
			t.Error("scratch buffer not reused")
		}
		c := env.ScratchBuf(th, 2048)
		if len(c) != 2048 {
			t.Errorf("grown buffer len = %d", len(c))
		}
	})
	k.Spawn("other", func(th *sim.Thread) {
		d := env.ScratchBuf(th, 1024)
		if len(d) != 1024 {
			t.Error("per-thread buffer wrong size")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEnvTraceRoutesToRecorder(t *testing.T) {
	k, env := testEnv()
	k.Spawn("t", func(th *sim.Thread) {
		env.Prof.Start(th)
		tm := env.Trace(th, "my_op")
		th.Sleep(sim.Millisecond)
		tm.End(th)
		space, _ := env.Prof.Stop(th)
		host := space.FindPlane(profiler.HostPlaneName)
		if host == nil || len(host.Lines) == 0 {
			t.Error("host plane missing")
			return
		}
		found := false
		for _, l := range host.Lines {
			for _, e := range l.Events {
				if e.Name == "my_op" {
					found = true
				}
			}
		}
		if !found {
			t.Error("my_op not recorded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
