package pami

import (
	"slices"

	"repro/internal/mem"
	"repro/internal/sim"
)

// MemRegion is registered memory usable as an RDMA source or target. Its
// metadata is fixed-size (γ = 8 bytes) regardless of the region length,
// which is what makes region caching affordable at scale.
type MemRegion struct {
	Rank int
	Base mem.Addr
	Size int
	next *MemRegion // the client's next region made past its first two (Client.made, Client.spare)
}

// Contains reports whether [addr, addr+n) lies within the region.
func (r *MemRegion) Contains(addr mem.Addr, n int) bool {
	return addr >= r.Base && uint64(addr)+uint64(n) <= uint64(r.Base)+uint64(r.Size)
}

// RegisterMemory registers [addr, addr+size) for RDMA, charging δ (43 µs).
// It returns nil when the process's region budget is exhausted — the
// condition the paper's fallback protocols exist for ("At scale, the
// creation of memory region may fail due to memory constraints").
func (c *Client) RegisterMemory(th *sim.Thread, addr mem.Addr, size int) *MemRegion {
	if c.MaxRegions < 0 || (c.MaxRegions > 0 && len(c.regions) >= c.MaxRegions) {
		return nil
	}
	th.Sleep(c.jit(c.M.P.MemRegionCreateTime))
	var r *MemRegion
	switch {
	case c.regionsMade < len(c.regionFirst):
		r = &c.regionFirst[c.regionsMade]
	case c.spare != nil:
		r, c.spare = c.spare, c.spare.next
	default:
		r = new(MemRegion)
	}
	if c.regionsMade >= len(c.regionFirst) {
		r.next, c.made = c.made, r
	}
	c.regionsMade++
	r.Rank, r.Base, r.Size = c.Rank, addr, size
	c.regions = append(c.regions, r)
	c.RegionBytes += c.M.P.MemRegionBytes
	return r
}

// DeregisterMemory removes a region from the registry (no time charged;
// deregistration is off the critical path).
func (c *Client) DeregisterMemory(r *MemRegion) {
	for i, reg := range c.regions {
		if reg == r {
			c.regions = slices.Delete(c.regions, i, i+1)
			c.RegionBytes -= c.M.P.MemRegionBytes
			return
		}
	}
}

// FindRegion returns a registered region covering [addr, addr+n), or nil.
// The registry is small (σ global structures plus τ local buffers), so a
// linear scan matches the real implementation's cost profile.
func (c *Client) FindRegion(addr mem.Addr, n int) *MemRegion {
	for _, r := range c.regions {
		if r.Contains(addr, n) {
			return r
		}
	}
	return nil
}

// RegionCount returns the number of live registrations.
func (c *Client) RegionCount() int { return len(c.regions) }
