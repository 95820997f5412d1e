package storage

import "repro/internal/sim"

// The cluster interconnect (EDR InfiniBand, ~100 Gbit/s per node). One
// link model charges every byte that crosses it: allreduce gradients,
// peer-cache serves and data-service batch transfers.
const (
	// LinkLatency is one request's round trip (one RDMA round trip).
	LinkLatency = 5 * sim.Microsecond
	// LinkBandwidth is the per-node link bandwidth in bytes/second.
	LinkBandwidth = 12.5e9
)

// LinkTransfer returns the time to move n bytes over the link: one
// request latency plus the serialized bytes.
func LinkTransfer(n int64) sim.Duration {
	return LinkLatency + bytesOver(n, LinkBandwidth)
}
