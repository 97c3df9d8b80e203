package sim

// Test hooks into the carrier pool (carrier.go).

// carriersMadeSoFar returns how many carriers the process has made.
func carriersMadeSoFar() int64 { return carriersMade.Load() }

// pooledCarriers returns how many idle carriers the pool holds.
func pooledCarriers() int {
	carrierPool.mu.Lock()
	defer carrierPool.mu.Unlock()
	return carrierPool.n
}

// drainCarriers empties the pool, so that the next run starts cold.
func drainCarriers() { DrainCarrierPool() }
