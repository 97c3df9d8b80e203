// Package loggp provides the paper's analytic communication models
// (Eqs. 7-9): LogGP-style predictions for RDMA get, the active-message
// fallback, and strided transfers. The benchmarks validate the simulator
// against these shapes, mirroring how the paper justifies its protocol
// choices.
package loggp

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// Model holds LogGP parameters in nanoseconds (G in ns/byte).
type Model struct {
	// O is the initiator software overhead per operation (o).
	O float64
	// ORemote is the extra remote-processor overhead paid by protocols
	// that need target-side progress (the second o of Eq. 8).
	ORemote float64
	// L is the fixed network latency (both directions for a get).
	L float64
	// G is the inverse effective payload bandwidth (gap per byte).
	G float64
	// PerMsg is the per-message occupancy of a pipelined stream (the
	// LogGP long-message gap), bounding streamed bandwidth.
	PerMsg float64
}

// FromParams derives the model from the machine constants for a path of
// the given hop count.
func FromParams(p *network.Params, hops int) Model {
	if hops < 1 {
		hops = 1
	}
	raw := float64(p.PacketPayload+p.PacketOverhead) / float64(p.PacketPayload)
	return Model{
		O:       float64(p.CPUInject + p.CompletionOverhead),
		ORemote: float64(p.AMHandlerCost + p.CPUInject),
		L: float64(2*(p.NicMsgOverhead+p.RouterFixed+sim.Time(hops)*p.HopLatency) +
			p.MUTurnaround),
		G:      raw / p.LinkBandwidth,
		PerMsg: float64(p.NicMsgOverhead + p.NicMsgGap),
	}
}

// TRdma is Eq. 7: the RDMA get/put latency, o + L + (m-1)G.
func (m Model) TRdma(bytes int) float64 {
	return m.O + m.L + float64(float64(bytes-1)*m.G)
}

// TFallback is Eq. 8: the active-message fallback latency, which pays an
// extra remote o because the target must serve the request.
func (m Model) TFallback(bytes int) float64 {
	return m.TRdma(bytes) + m.ORemote
}

// TStrided is Eq. 9: a strided transfer of total size m in contiguous
// chunks of l0 bytes, T ≈ o·m/l0 + m·G. Per-chunk software overhead
// dominates for tall-skinny patches.
func (m Model) TStrided(bytes, l0 int) float64 {
	chunks := float64(bytes) / float64(l0)
	per := m.PerMsg + float64(float64(l0)*m.G)
	if o := m.O; o > per {
		per = o
	}
	return float64(chunks*per) + m.L
}

// StreamBandwidth predicts pipelined bandwidth in MB/s for message size m.
func (m Model) StreamBandwidth(bytes int) float64 {
	per := m.PerMsg + float64(bytes)*m.G
	return float64(bytes) / per * 1000
}

// PeakBandwidth is the asymptotic payload bandwidth in MB/s.
func (m Model) PeakBandwidth() float64 { return 1000 / m.G }

// NHalf returns the message size achieving half the peak bandwidth
// (the N½ metric of Fig 6), found by bisection.
func (m Model) NHalf() int {
	half := m.PeakBandwidth() / 2
	lo, hi := 1, 1<<26
	for lo < hi {
		mid := (lo + hi) / 2
		if m.StreamBandwidth(mid) < half {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Efficiency is the ratio of achieved to peak bandwidth.
func (m Model) Efficiency(bytes int) float64 {
	return m.StreamBandwidth(bytes) / m.PeakBandwidth()
}
