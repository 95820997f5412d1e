package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/darshan"
)

// RunArtifacts are the on-disk outputs of a profiled run (Table I's
// "Outputs: Darshan log, Protobuf" plus the TraceViewer document).
type RunArtifacts struct {
	// DarshanLog is the classic binary log: single-process for the
	// case-study runs, merged-kind (nprocs > 1) for the distributed run.
	DarshanLog  []byte
	TraceJSONGz []byte
	ProfilePB   []byte
	// PerRankLogs holds one single-process log per rank (distributed use
	// case only), in rank order.
	PerRankLogs [][]byte
}

// ProduceArtifacts runs one profiled case-study epoch and serializes its
// artifacts: the classic Darshan binary log (readable by darshan-parser
// and dxt-parser), the trace.json.gz TraceViewer document and the analysis
// protobuf. The "distributed" use case runs the data-parallel ImageNet
// cluster job instead (Config.Ranks ranks, default 4) and emits the
// merged darshan.log plus one log per rank.
func ProduceArtifacts(c Config, useCase string) (*RunArtifacts, error) {
	var w *paperWorkload
	switch useCase {
	case "imagenet":
		w = imageNet
	case "malware":
		w = kaggle
	case "distributed":
		return produceDistributedArtifacts(c)
	default:
		return nil, fmt.Errorf("unknown use case %q (want imagenet, malware or distributed)", useCase)
	}
	setup, err := w.setup(c, runOpts{})
	if err != nil {
		return nil, err
	}
	out, err := setup.run()
	if err != nil {
		return nil, err
	}

	exported, err := core.Export(out.tb.Space, setup.handle.Last, out.tb.Session.StartNs)
	if err != nil {
		return nil, err
	}
	var logBuf bytes.Buffer
	if err := setup.machine.Darshan.Export(setup.machine.K.Now()).Write(&logBuf); err != nil {
		return nil, err
	}
	return &RunArtifacts{
		DarshanLog:  logBuf.Bytes(),
		TraceJSONGz: exported.TraceJSONGz,
		ProfilePB:   exported.ProfilePB,
	}, nil
}

// produceDistributedArtifacts runs the data-parallel ImageNet job and
// serializes its Darshan logs: the merged cluster log (decoded once as a
// self-check) plus the per-rank single-process logs.
func produceDistributedArtifacts(c Config) (*RunArtifacts, error) {
	ranks := c.Ranks
	if ranks == 0 {
		ranks = 4
	}
	res, err := c.runCluster(clusterRun{ranks: ranks})
	if err != nil {
		return nil, err
	}
	logs, err := res.SerializeLogs()
	if err != nil {
		return nil, err
	}
	m, err := darshan.ReadLog(bytes.NewReader(logs.Merged))
	if err != nil {
		return nil, fmt.Errorf("merged log does not round-trip: %w", err)
	}
	if !m.Merged || m.NProcs != ranks {
		return nil, fmt.Errorf("merged log decodes to merged=%v nprocs %d, want a merged log of %d", m.Merged, m.NProcs, ranks)
	}
	return &RunArtifacts{DarshanLog: logs.Merged, PerRankLogs: logs.PerRank}, nil
}
