package experiments

import (
	"fmt"
	"slices"

	"repro/internal/dataservice"
	"repro/internal/platform"
	"repro/internal/workload"
)

// This file is the disaggregated tf.data service experiment: per worker-
// fleet size it ramps the number of concurrent training jobs served by
// the fleet — every job an independently shuffled epoch over the same
// STREAM(ImageNet) corpus on shared Lustre, read/decoded/batched by the
// workers through a peer-served NVMe cache tier and delivered over the
// interconnect — and reports which resource saturates first at each rung:
// the PFS object servers, the shared MDS, the cache tier's NVMe devices,
// or the dispatcher's serialized control plane. A no-service baseline
// (the same jobs as independent cold pipelines) anchors the dedup win.
// The sharing/exactness invariants are verified in-experiment rather than
// just reported: every job's batch count must match its leases exactly,
// the fleet's PFS traffic must stay within [corpus, sum of per-job cold
// bytes], and the shared tier must strictly beat the independent
// pipelines on both wall time and PFS bytes.

// dataserviceJobRamp is the concurrent-job ladder each fleet size serves.
var dataserviceJobRamp = []int{4, 16, 64, 256}

// dataserviceBaselineJobs is the ramp rung the no-service baseline runs
// at — the point the speedup/bytes-saved comparison is anchored on.
const dataserviceBaselineJobs = 16

// dataserviceFleets is the worker-fleet ladder (Config.Ranks pins one).
var dataserviceFleets = []int{2, 4, 8}

// DataServiceRow is one job count of a fleet's ramp.
type DataServiceRow struct {
	Fleet int
	Jobs  int
	// WallSec is the virtual time to serve every job's epoch.
	WallSec float64
	// AggMBps is the delivered (post-decode, batched) bandwidth summed
	// over jobs.
	AggMBps float64
	// PFSBytesRead is what the fleet actually read off Lustre; DedupX is
	// the ratio of the bytes the jobs would have read with no sharing to
	// it (jobs-over-one-corpus makes it approach the job count).
	PFSBytesRead int64
	DedupX       float64
	// Util is the four saturable resources' utilizations over the run;
	// Saturated names the largest.
	Util      dataservice.Utilization
	Saturated string
	// KneeJobs is the fleet's first ramp rung whose aggregate delivered
	// throughput scaled at under half the ideal ratio from the previous
	// rung — where adding jobs stops buying throughput (the last rung if
	// the ramp never knees). SpeedupX and BytesSavedMB compare the fleet's
	// dataserviceBaselineJobs rung against the same jobs run as
	// independent pipelines.
	KneeJobs     int
	SpeedupX     float64
	BytesSavedMB float64
}

// DataServiceResult is the disaggregated data service experiment.
type DataServiceResult = table[DataServiceRow]

var dataserviceTable = &tableSpec[DataServiceRow]{
	title: "Disaggregated tf.data service: concurrent-job ramp per worker fleet over shared Lustre",
	cols: []column[DataServiceRow]{
		{head: "fleet", width: 5, verb: "%5d", cell: func(r DataServiceRow) any { return r.Fleet }},
		{head: "jobs", width: 5, verb: "%5d", cell: func(r DataServiceRow) any { return r.Jobs }},
		{head: "wall(s)", width: 8, verb: "%8.2f", cell: func(r DataServiceRow) any { return r.WallSec }, metric: "wall_s"},
		{head: "agg MB/s", width: 9, verb: "%9.1f", cell: func(r DataServiceRow) any { return r.AggMBps }, metric: "agg_MBps"},
		{head: "dedup", width: 7, verb: "%6.1fx", cell: func(r DataServiceRow) any { return r.DedupX }, metric: "dedup_x"},
		{head: "pfs%", width: 6, verb: "%5.1f%%", cell: func(r DataServiceRow) any { return r.Util.PFS * 100 },
			metric: "pfs_util", value: func(r DataServiceRow) float64 { return r.Util.PFS }},
		{head: "mds%", width: 6, verb: "%5.1f%%", cell: func(r DataServiceRow) any { return r.Util.MDS * 100 },
			metric: "mds_util", value: func(r DataServiceRow) float64 { return r.Util.MDS }},
		{head: "cache%", width: 6, verb: "%5.1f%%", cell: func(r DataServiceRow) any { return r.Util.Cache * 100 },
			metric: "cache_util", value: func(r DataServiceRow) float64 { return r.Util.Cache }},
		{head: "disp%", width: 6, verb: "%5.1f%%", cell: func(r DataServiceRow) any { return r.Util.Dispatcher * 100 },
			metric: "disp_util", value: func(r DataServiceRow) float64 { return r.Util.Dispatcher }},
		{head: " saturates", width: -11, verb: " %-10s", cell: func(r DataServiceRow) any { return r.Saturated }},
	},
	key: func(r DataServiceRow) string { return fmt.Sprintf("fleet%d_jobs%03d_", r.Fleet, r.Jobs) },
	extra: func(rows []DataServiceRow, out map[string]float64) {
		for _, r := range rows {
			p := fmt.Sprintf("fleet%d_", r.Fleet)
			out[p+"knee_jobs"] = float64(r.KneeJobs)
			out[p+"speedup_vs_independent_x"] = r.SpeedupX
			out[p+"bytes_saved_MB"] = r.BytesSavedMB
		}
		// Headline metrics: the largest fleet.
		last := rows[len(rows)-1]
		out["dataservice_jobs_knee"] = float64(last.KneeJobs)
		out["dataservice_speedup_vs_independent_x"] = last.SpeedupX
		out["dataservice_dedup_ratio"] = last.DedupX
	},
	// The fleet's summary line follows its last rung.
	footer: func(rows []DataServiceRow, i int) string {
		r := rows[i]
		if i+1 < len(rows) && rows[i+1].Fleet == r.Fleet {
			return ""
		}
		return fmt.Sprintf("  %5d knee at %d jobs; vs %d independent pipelines: %.2fx faster, %.1f MB of PFS reads saved\n",
			r.Fleet, r.KneeJobs, dataserviceBaselineJobs, r.SpeedupX, r.BytesSavedMB)
	},
}

// buildDataServiceCluster boots a worker fleet with preloaded Darshan
// over the shared STREAM(ImageNet) corpus. The corpus is a quarter of the
// STREAM subset: every job of the deepest rung reads it whole, so the ramp
// multiplies it by up to 256 epochs.
func buildDataServiceCluster(c Config, fleet int) (*platform.Cluster, *workload.Dataset, error) {
	cluster := platform.NewKebnekaiseCluster(fleet, platform.Options{PreloadDarshan: true})
	for _, n := range cluster.Nodes {
		c.boot(n)
	}
	spec := workload.StreamImageNetSpec(platform.KebnekaiseLustre+"/dsvc", c.Scale*0.25)
	d, err := workload.BuildStreamImageNet(cluster.FS, spec)
	if err != nil {
		return nil, nil, err
	}
	return cluster, d, nil
}

// serveJobs serves one (fleet, jobs) rung, with or without the shared
// cache tier, verifying the exactness and sharing invariants.
func (c Config) serveJobs(fleet, jobs int, shared bool) (row DataServiceRow, err error) {
	defer wrapErr(&err, "jobs=%d", jobs)
	cluster, d, err := buildDataServiceCluster(c, fleet)
	if err != nil {
		return row, err
	}
	corpus := d.Total()
	cfg := dataservice.Config{MapFn: workload.ImageNetMap, Threads: 2}
	if shared {
		// The tier holds the whole corpus per worker: capacity pressure is
		// the prefetch experiment's subject, saturation under sharing is
		// this one's.
		cfg.CacheBytes = 2 * corpus
		cfg.PeerServing = true
	}
	// Every job is an independently shuffled epoch over the shared corpus.
	specs := make([]dataservice.JobSpec, jobs)
	for i := range specs {
		specs[i] = dataservice.JobSpec{
			Name:    fmt.Sprintf("j%03d", i),
			Paths:   d.Paths,
			Shuffle: c.shuffleSeed() + int64(i),
			Batch:   8,
		}
	}
	res, err := dataservice.Run(cluster, specs, cfg)
	if err != nil {
		return row, err
	}

	row = DataServiceRow{Fleet: fleet, Jobs: jobs, WallSec: res.WallSeconds, PFSBytesRead: res.PFSBytesRead, Util: res.Util}
	var delivered int64
	for _, j := range res.Jobs {
		// Exactness: a served epoch delivers exactly the batches its shard
		// leases imply — no dropped or duplicated work under contention.
		if j.Batches != j.ExpectedBatches {
			return row, fmt.Errorf("%s delivered %d batches, leases imply %d", j.Name, j.Batches, j.ExpectedBatches)
		}
		if j.Bytes != j.ColdBytes {
			return row, fmt.Errorf("%s consumed %d bytes of a %d-byte epoch", j.Name, j.Bytes, j.ColdBytes)
		}
		delivered += j.Bytes
	}
	// Sharing: the fleet reads every corpus byte at least once, and never
	// more than the jobs would have read with no sharing at all; with the
	// shared tier and overlapping jobs, strictly less.
	cold := res.TotalColdBytes()
	if row.PFSBytesRead < corpus || row.PFSBytesRead > cold {
		return row, fmt.Errorf("PFS read %d bytes outside [corpus %d, cold %d]", row.PFSBytesRead, corpus, cold)
	}
	if shared && jobs > 1 && row.PFSBytesRead >= cold {
		return row, fmt.Errorf("shared tier deduplicated nothing (%d of %d cold bytes)", row.PFSBytesRead, cold)
	}
	row.DedupX = ratio(float64(cold), float64(row.PFSBytesRead))
	if row.WallSec > 0 {
		row.AggMBps = float64(delivered) / 1e6 / row.WallSec
	}
	// The saturating resource is the most utilized one (the first on ties).
	utils := []float64{row.Util.PFS, row.Util.MDS, row.Util.Cache, row.Util.Dispatcher}
	row.Saturated = []string{"pfs", "mds", "cache", "dispatcher"}[slices.Index(utils, slices.Max(utils))]
	return row, nil
}

// kneeJobs finds the first rung whose aggregate throughput scaled at
// under half the ideal job ratio from the previous rung.
func kneeJobs(rungs []DataServiceRow) int {
	for i := 1; i < len(rungs); i++ {
		prev, cur := rungs[i-1], rungs[i]
		ideal := float64(cur.Jobs) / float64(prev.Jobs)
		if prev.AggMBps > 0 && cur.AggMBps/prev.AggMBps < 0.5*ideal {
			return cur.Jobs
		}
	}
	return rungs[len(rungs)-1].Jobs
}

// dataserviceFleet ramps the concurrent jobs one fleet serves, then runs
// the same jobs as independent cold pipelines at the baseline rung.
func (c Config) dataserviceFleet(fleet int) (rows []DataServiceRow, err error) {
	defer wrapErr(&err, "dataservice: fleet=%d", fleet)
	for _, jobs := range dataserviceJobRamp {
		row, err := c.serveJobs(fleet, jobs, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	baseline, err := c.serveJobs(fleet, dataserviceBaselineJobs, false)
	if err != nil {
		return nil, err
	}
	// The service must strictly beat the same jobs run as independent cold
	// pipelines — on time and on PFS traffic — or disaggregating the data
	// plane bought nothing.
	at := rows[slices.Index(dataserviceJobRamp, dataserviceBaselineJobs)]
	if at.WallSec >= baseline.WallSec || at.PFSBytesRead >= baseline.PFSBytesRead {
		return nil, fmt.Errorf("jobs=%d: service (%.2fs, %d PFS bytes) did not beat independent pipelines (%.2fs, %d)",
			at.Jobs, at.WallSec, at.PFSBytesRead, baseline.WallSec, baseline.PFSBytesRead)
	}
	knee := kneeJobs(rows)
	for i := range rows {
		rows[i].KneeJobs = knee
		rows[i].SpeedupX = baseline.WallSec / at.WallSec
		rows[i].BytesSavedMB = float64(baseline.PFSBytesRead-at.PFSBytesRead) / 1e6
	}
	return rows, nil
}

// DataServiceExperiment ramps concurrent jobs per worker-fleet size, plus
// one independent-pipelines baseline per fleet.
func DataServiceExperiment(c Config) (*DataServiceResult, error) {
	return sweep(c, dataserviceTable, c.ladder(dataserviceFleets), c.dataserviceFleet)
}
