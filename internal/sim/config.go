// Package sim is the Tigris accelerator model (paper §5): a cycle-level
// simulator of the front-end Recursion Units (RU) that traverse the
// two-stage KD-tree's top-tree, and the back-end Search Units (SU) whose
// Processing Element (PE) arrays exhaustively scan leaf node-sets. The
// model does not search: Prepare answers the workload with the software's
// own two-stage search (one twostage.ApproxSession per stage batch) and
// the engine schedules the visits that search logged — so the results are
// the software's and so is every node visit and leaf scan — while
// accounting cycles, buffer traffic, and energy the way the paper's
// synthesis-parameterized simulator does (§6.1).
//
// Modeled mechanisms, each mapped to its paper section:
//
//   - RU six-stage pipeline FQ/RS/RN/CD/PI/CL with the PI→RS stall, node
//     forwarding, and node bypassing (§5.2, Fig. 9).
//   - Query-level parallelism across RUs and SU PEs; node-level
//     parallelism by streaming node-sets through the PE pipeline (§5.1).
//   - MQSN vs MQMN issue, hierarchical SUs, the query distribution
//     network's low-order-bit leaf→SU mapping (§5.3).
//   - The FIFO node cache in front of the Input Point Buffer (§5.3).
//   - Approximate search with capped per-leaf Leader Buffers, with
//     follower queries fetching their leader's results from the Result
//     Buffer (§4.3, §5.3).
//   - BE→FE query reinsertion: a query whose leaf scan finishes resumes
//     its top-tree traversal with the tightened current-best distance
//     (Fig. 8).
package sim

import (
	"fmt"

	"tigris/internal/twostage"
)

// IssuePolicy selects how SUs issue queries to their PEs (§5.3).
type IssuePolicy int

const (
	// MQSN (Multiple Query Single NodeSet) forces all PEs of an SU to
	// process queries from the same leaf so one node-set stream feeds the
	// whole array. The design the paper adopts.
	MQSN IssuePolicy = iota
	// MQMN (Multiple Query Multiple NodeSet) lets every PE process any
	// query at the cost of per-PE node-set streams (≈2× speed, ≈4× power
	// in Fig. 12).
	MQMN
)

// String implements fmt.Stringer.
func (p IssuePolicy) String() string {
	if p == MQMN {
		return "MQMN"
	}
	return "MQSN"
}

// Config describes one accelerator instance. The zero value is invalid;
// use DefaultConfig for the paper's shipping configuration.
type Config struct {
	// NumRU is the number of front-end recursion units (paper: 64).
	NumRU int
	// NumSU is the number of back-end search units (paper: 32).
	NumSU int
	// PEsPerSU is the PE array width per SU (paper: 32).
	PEsPerSU int
	// ClockMHz is the datapath clock (paper: 500 MHz in 16 nm).
	ClockMHz float64

	// Forwarding enables node forwarding in the RU pipeline (§5.2).
	Forwarding bool
	// Bypassing enables pruned-node bypassing in the RU pipeline (§5.2).
	Bypassing bool
	// Issue selects MQSN or MQMN.
	Issue IssuePolicy
	// NodeCacheSets is the total number of node-set entries in the node
	// cache, divided evenly among the SUs (0 disables). The paper's
	// 128 KB cache holds 64 sets of 128 16-byte points; that is the
	// default.
	NodeCacheSets int

	// Approx enables the leader/follower approximate search with the given
	// discriminator threshold (meters); 0 disables. For radius workloads
	// the effective threshold is ApproxRadiusFrac × radius when that field
	// is positive.
	Approx           float64
	ApproxRadiusFrac float64
	// LeaderCap bounds each leaf's leader buffer (paper: 16).
	LeaderCap int

	// BQBCapacity is the per-SU back-end query buffer capacity in queries
	// (paper: 128). The FE stalls distribution to a full BQB.
	BQBCapacity int
}

// DefaultConfig returns the paper's evaluated configuration (§6.2): 64
// RUs, 32 SUs, 32 PEs/SU, 500 MHz, both RU optimizations, MQSN issue, the
// node cache, and a 16-entry leader cap.
func DefaultConfig() Config {
	return Config{
		NumRU:         64,
		NumSU:         32,
		PEsPerSU:      32,
		ClockMHz:      500,
		Forwarding:    true,
		Bypassing:     true,
		Issue:         MQSN,
		NodeCacheSets: 64,
		LeaderCap:     16,
		BQBCapacity:   128,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.NumRU <= 0:
		return fmt.Errorf("sim: NumRU must be positive, got %d", c.NumRU)
	case c.NumSU <= 0:
		return fmt.Errorf("sim: NumSU must be positive, got %d", c.NumSU)
	case c.PEsPerSU <= 0:
		return fmt.Errorf("sim: PEsPerSU must be positive, got %d", c.PEsPerSU)
	case c.ClockMHz <= 0:
		return fmt.Errorf("sim: ClockMHz must be positive, got %v", c.ClockMHz)
	}
	return nil
}

func (c *Config) defaults() {
	if c.LeaderCap == 0 {
		c.LeaderCap = 16
	}
	if c.BQBCapacity == 0 {
		c.BQBCapacity = 128
	}
}

// approxOptions is where the model's approximation settings become the
// software search's: one Leader Buffer state per stage batch, capped at
// LeaderCap entries a leaf.
func (c *Config) approxOptions() twostage.ApproxOptions {
	return twostage.ApproxOptions{
		Threshold:           c.Approx,
		RadiusThresholdFrac: c.ApproxRadiusFrac,
		MaxLeaders:          c.LeaderCap,
	}
}

// Area is the §6.2 area model, in mm² at 16 nm. Constants are fit to the
// paper's totals: 8.38 mm² of SRAM for ≈8.86 MB of buffers
// (0.946 mm²/MB) and 7.19 mm² of logic for 64 RUs + 1024 PEs
// (6.61e-3 mm² per distance-compute unit).
type Area struct {
	SRAMmm2   float64
	LogicMm2  float64
	SRAMBytes int64
}

// Total returns the total area in mm².
func (a Area) Total() float64 { return a.SRAMmm2 + a.LogicMm2 }

// SRAM sizing mirrors §6.2: Input Point Buffer 1.5 MB, Query Buffer
// 1.5 MB, Query Stack Buffer 1.2 MB, FE Query Queue 1.5 MB, Result Buffer
// 3 MB (double-buffered), 1 KB BQB per SU, 128 KB node cache scaled by the
// configured set count.
const (
	inputPointBufBytes = 1_500 << 10
	queryBufBytes      = 1_500 << 10
	queryStackBufBytes = 1_200 << 10
	feQueryQueueBytes  = 1_500 << 10
	resultBufBytes     = 3_000 << 10
	bqbBytesPerSU      = 1 << 10
	nodeCacheBytesPer  = 2 << 10 // one 128-point set of 16-byte points
)

const (
	mm2PerMByte = 0.968
	mm2PerUnit  = 0.00661
)

// EstimateArea returns the area of this configuration.
func (c *Config) EstimateArea() Area {
	sramBytes := int64(inputPointBufBytes + queryBufBytes + queryStackBufBytes +
		feQueryQueueBytes + resultBufBytes)
	sramBytes += int64(c.NumSU) * bqbBytesPerSU
	sramBytes += int64(c.NodeCacheSets) * nodeCacheBytesPer
	units := c.NumRU + c.NumSU*c.PEsPerSU
	return Area{
		SRAMmm2:   mm2PerMByte * float64(sramBytes) / (1 << 20),
		LogicMm2:  mm2PerUnit * float64(units),
		SRAMBytes: sramBytes,
	}
}
