package sim

import "time"

// Energy model (README "Substitutions", 3). Per-event energies are
// documented constants for a 16 nm process, chosen so the shipping
// configuration reproduces the paper's §6.3 DP4 energy breakdown
// (PE ≈ 53.7%, SRAM read ≈ 34.8%, SRAM write ≈ 8.0%, leakage ≈ 3.3%,
// DRAM ≈ 0.2%). The absolute joule numbers are model outputs, not
// silicon measurements; every experiment reports ratios.
const (
	// pePJ is the fully loaded energy of one PE distance operation: the
	// 3-component fp32 subtract/multiply/accumulate tree and compare,
	// plus the pipeline registers, issue/control logic, and clock-tree
	// share attributed to the operation (the raw arithmetic alone is
	// ~15-20 pJ at 16 nm; control and clocking dominate).
	pePJ = 110.0
	// sramReadPJ is the fully loaded per-access (16-byte word) read
	// energy averaged over the buffer population; reads mostly hit the
	// megabyte-class buffers (Input Point Buffer, Query Buffer).
	sramReadPJ = 70.0
	// sramWritePJ is lower than the read energy because writes
	// concentrate on the small, banked structures (query stacks, BQBs,
	// node-cache fills) rather than the megabyte buffers.
	sramWritePJ = 17.0
	// dramPJ is the energy of one 64-byte burst of host<->accelerator DMA
	// (LPDDR4-class). Only the per-query result summaries cross the DRAM
	// interface per invocation: the point cloud, the two-stage tree, and
	// the query set are frame-resident in the global buffer and reused
	// across all of a frame's pipeline-stage invocations and ICP
	// iterations, which is how the paper's 0.2% DRAM share arises.
	dramPJ = 1_000.0
	// leakageWatts is the static power of the whole datapath + SRAM.
	leakageWatts = 0.35
)

// Energy is the per-component energy breakdown in joules.
type Energy struct {
	PE        float64
	SRAMRead  float64
	SRAMWrite float64
	Leakage   float64
	DRAM      float64
}

// Total returns the summed energy in joules.
func (e Energy) Total() float64 {
	return e.PE + e.SRAMRead + e.SRAMWrite + e.Leakage + e.DRAM
}

// computeEnergy converts op counts and runtime into the energy breakdown.
func computeEnergy(counts OpCounts, cycles uint64, clockMHz float64) Energy {
	seconds := float64(cycles) / (clockMHz * 1e6)
	return Energy{
		PE:        float64(counts.PEDistanceOps) * pePJ * 1e-12,
		SRAMRead:  float64(counts.SRAMReads) * sramReadPJ * 1e-12,
		SRAMWrite: float64(counts.SRAMWrites) * sramWritePJ * 1e-12,
		Leakage:   leakageWatts * seconds,
		DRAM:      float64(counts.DRAMAccesses) * dramPJ * 1e-12,
	}
}

// cyclesToDuration converts a cycle count at the configured clock into
// wall time.
func cyclesToDuration(cycles uint64, clockMHz float64) time.Duration {
	ns := float64(cycles) / (clockMHz * 1e6) * 1e9
	return time.Duration(ns)
}
