// Package stats collects simulation statistics and provides the aggregate
// math (geometric-mean speedups, coverage fractions, distributions) used by
// the paper's evaluation section.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sim aggregates every counter one core run produces. All fields are plain
// counters so the zero value is ready to use.
type Sim struct {
	// Cycles is the number of simulated core cycles.
	Cycles uint64
	// Instructions is the number of committed micro-ops.
	Instructions uint64

	// Loads is the number of committed load uops.
	Loads uint64
	// Stores is the number of committed store uops.
	Stores uint64
	// Branches is the number of committed branch uops.
	Branches uint64
	// BranchMispredicts counts committed mispredicted branches.
	BranchMispredicts uint64

	// LoadHitLevel[l] counts committed loads whose data came from level l
	// (see the Level* constants). This regenerates Figure 2.
	LoadHitLevel [NumLevels]uint64

	// StoreForwarded counts loads whose data was forwarded from an older
	// in-flight store.
	StoreForwarded uint64
	// MemOrderViolations counts pipeline flushes due to memory-ordering
	// violations (a load executed before a conflicting older store).
	MemOrderViolations uint64
	// HitMissMispredicts counts loads whose L1 hit/miss speculation was
	// wrong, forcing dependent replay.
	HitMissMispredicts uint64
	// Replays counts scheduler re-issues caused by wrong speculative
	// wakeups.
	Replays uint64

	// RFP is the register-file-prefetch counter block (Figure 13).
	RFP RFPStats
	// L1PF is the L1 hardware-prefetcher counter block (the prefetcher
	// zoo: stream/spp/sisb/managed).
	L1PF L1PFStats
	// CLP is the cache-level-predictor counter block (the RFP arming
	// extension; see docs/predictors.md).
	CLP CLPStats
	// VP is the value-prediction counter block (Figure 15).
	VP VPStats
	// AP is the address-prediction (DLVP) counter block (Figure 16).
	AP APStats

	// DTLBMisses counts first-level DTLB misses on demand accesses.
	DTLBMisses uint64

	// L1Accesses counts every L1 data cache access from any source:
	// demand loads and stores, RFP prefetches, wrong-prefetch re-reads
	// and DLVP probes. The paper's §5.6 bandwidth argument is about this
	// number: correct RFP keeps it flat while address predictors inflate
	// it with probe and validation traffic.
	L1Accesses uint64

	// LoadsAddrReadyAtAlloc counts loads whose address operands were
	// already available when the load allocated into the OOO window (the
	// paper reports 63% of loads are NOT ready at allocation, which is
	// what gives RFP its run-ahead).
	LoadsAddrReadyAtAlloc uint64

	// Slots is the top-down commit-slot accounting (see SlotStats).
	Slots SlotStats

	// VPFlushes counts pipeline flushes caused by value mispredictions.
	VPFlushes uint64
	// EPPReexecutions counts loads re-executed at retirement due to SSBF
	// (false) positives in the EPP scheme.
	EPPReexecutions uint64

	// Checks is the runtime invariant-violation block, populated only when
	// config.Checks is enabled (see docs/checking.md). Every field should
	// be zero on a healthy simulator; sweeps surface the total as
	// rfpsim_check_violations_total instead of crashing mid-grid.
	Checks CheckStats
}

// CheckStats counts runtime invariant violations, one counter per
// invariant so a nonzero total immediately names the broken contract.
// The invariants come straight from the paper's microarchitecture
// description: RFP is architecturally invisible, steals only free L1
// ports (§4.3), arms its in-flight bit exactly the scheduler depth ahead
// of the fill (§4.2), and the Prefetch Table's in-flight counters are
// balanced by commits and squashes (§4.1).
type CheckStats struct {
	// RFPQueueOverflow counts cycles the prefetch-queue occupancy exceeded
	// its configured capacity.
	RFPQueueOverflow uint64
	// PTInflightUnderflow counts Prefetch Table in-flight decrements that
	// would have driven a counter below zero (net of entries whose counts
	// were legitimately stranded by eviction).
	PTInflightUnderflow uint64
	// RFPPortOvercommit counts cycles where prefetches won more L1 load
	// ports than were actually free, or demand issue overcommitted the
	// load ports outright.
	RFPPortOvercommit uint64
	// RFPArmLeadSkew counts L1-hit prefetches whose RFP-inflight bit did
	// not lead the register-file fill by exactly the wakeup/select/read
	// depth (checked only when L1Latency == SchedDepth+2, the paper's
	// alignment).
	RFPArmLeadSkew uint64
	// PRFMultiWriter counts physical-register allocations that handed a
	// register already owned by another in-flight producer.
	PRFMultiWriter uint64
	// StaleDataDelivered counts retired loads whose modelled datapath
	// delivered a value different from what program-order memory holds —
	// the exact corruption RFP's store-queue disambiguation exists to
	// prevent.
	StaleDataDelivered uint64
}

// Total returns the violation count across all invariants, summed over
// Each so the invariant list is declared once.
func (c CheckStats) Total() uint64 {
	var total uint64
	c.Each(func(_ string, count uint64) { total += count })
	return total
}

// Each calls fn for every invariant counter in a fixed order, using the
// snake_case names that appear in reports and metric labels.
func (c CheckStats) Each(fn func(name string, count uint64)) {
	fn("rfp_queue_overflow", c.RFPQueueOverflow)
	fn("pt_inflight_underflow", c.PTInflightUnderflow)
	fn("rfp_port_overcommit", c.RFPPortOvercommit)
	fn("rfp_arm_lead_skew", c.RFPArmLeadSkew)
	fn("prf_multi_writer", c.PRFMultiWriter)
	fn("stale_data_delivered", c.StaleDataDelivered)
}

// SlotStats classifies every commit slot of every cycle, top-down style:
// a slot either retired a uop or was blocked — by a load still fetching
// data (the population RFP attacks), by a non-load execution, or by an
// empty window (frontend stall after mispredicts/flushes).
type SlotStats struct {
	// Retired slots committed a uop.
	Retired uint64
	// StallLoad slots were blocked behind an unfinished load at the head.
	StallLoad uint64
	// StallExec slots were blocked behind a non-load head still executing.
	StallExec uint64
	// StallEmpty slots had no uop to retire (frontend-bound).
	StallEmpty uint64
}

// Total returns the slot count across categories.
func (s SlotStats) Total() uint64 {
	return s.Retired + s.StallLoad + s.StallExec + s.StallEmpty
}

// Frac returns category counts normalized by the total.
func (s SlotStats) Frac() (retired, load, exec, empty float64) {
	t := float64(s.Total())
	if t == 0 {
		return 0, 0, 0, 0
	}
	return float64(s.Retired) / t, float64(s.StallLoad) / t,
		float64(s.StallExec) / t, float64(s.StallEmpty) / t
}

// RFPStats counts the life cycle of register file prefetches, matching the
// "Prefetches Injected / Executed / Useful" bars of Figure 13.
type RFPStats struct {
	// Injected counts prefetch packets created at rename.
	Injected uint64
	// Dropped counts packets cancelled before execution (load beat the
	// prefetch to the L1 port, queue overflow, DTLB miss drop).
	Dropped uint64
	// DroppedTLBMiss counts the subset of Dropped caused by a DTLB miss.
	DroppedTLBMiss uint64
	// Executed counts prefetches that won L1 arbitration and brought data
	// into the register file.
	Executed uint64
	// Useful counts loads that consumed correctly prefetched data
	// ("coverage" in the paper).
	Useful uint64
	// FullyHidden counts useful prefetches that completed before the load
	// dispatched (the load behaved as a 1-cycle op, §5.2.2).
	FullyHidden uint64
	// Wrong counts executed prefetches whose predicted address mismatched
	// the load's address (the load re-accessed the cache).
	Wrong uint64
	// L1Misses counts executed prefetches that missed the L1 and were
	// allowed to fetch from the lower levels.
	L1Misses uint64
	// PortConflicts counts cycles an RFP request lost L1 arbitration to a
	// demand load.
	PortConflicts uint64
}

// L1PFStats counts the life cycle of L1 hardware prefetches (the cache
// prefetcher zoo), mirroring RFPStats for the scheme that fills caches
// instead of the register file. Coverage is Useful/Loads, accuracy is
// Useful/Issued, pollution shows up as Unused.
type L1PFStats struct {
	// Issued counts prefetch candidates that won an MSHR and filled the L1.
	Issued uint64
	// Useful counts demand accesses that consumed a prefetched line.
	Useful uint64
	// Late counts the subset of Useful where demand merged with the
	// prefetch still in flight (covered, but latency only partly hidden).
	Late uint64
	// Unused counts prefetched lines evicted without ever being consumed
	// (cache pollution).
	Unused uint64
	// Dropped counts candidates discarded for want of a free MSHR.
	Dropped uint64

	// ManagerEpochs/ManagerSwitches/ManagerThrottledEpochs instrument the
	// adaptive "managed" policy: decision epochs elapsed, active-prefetcher
	// switches taken, and epochs spent throttled to degree 1.
	ManagerEpochs          uint64
	ManagerSwitches        uint64
	ManagerThrottledEpochs uint64
}

// CLPStats counts cache-level-prediction outcomes and the RFP schedule
// decisions taken on them. Coverage is sum(Predicted)/Loads, accuracy is
// sum(Correct)/sum(Predicted); the per-level split shows where the
// predictor earns its keep (L1 predictions dominate and are the easiest).
type CLPStats struct {
	// Predicted[l] counts committed loads confidently predicted to be
	// served by hierarchy level l at dispatch.
	Predicted [NumLevels]uint64
	// Correct[l] counts the subset of Predicted[l] actually served by l.
	Correct [NumLevels]uint64
	// SkippedDRAM counts otherwise-eligible prefetches suppressed because
	// the load was predicted to go to DRAM (the prefetch cannot arrive in
	// time, so the queue slot and L1 port are saved).
	SkippedDRAM uint64
	// EarlyArmed counts executed prefetches whose RFP-inflight bit was
	// armed one cycle early on a predicted-L1/L2 hit.
	EarlyArmed uint64
	// CritGated counts otherwise-eligible prefetches suppressed by the
	// criticality gate while the prefetch queue was contested (half full
	// or more): only commit-stalling loads may claim the remaining slots.
	CritGated uint64
}

// PredictedTotal returns predictions summed across hierarchy levels.
func (c *CLPStats) PredictedTotal() uint64 {
	var t uint64
	for _, v := range c.Predicted {
		t += v
	}
	return t
}

// CorrectTotal returns correct predictions summed across hierarchy levels.
func (c *CLPStats) CorrectTotal() uint64 {
	var t uint64
	for _, v := range c.Correct {
		t += v
	}
	return t
}

// VPStats counts value-prediction outcomes.
type VPStats struct {
	// Predicted counts loads whose value was predicted and consumed.
	Predicted uint64
	// Correct counts predictions validated correct at execution.
	Correct uint64
	// Mispredicted counts predictions that were wrong and caused a
	// pipeline flush.
	Mispredicted uint64
}

// APStats instruments the DLVP constraint waterfall of Figure 16. Each
// counter is a number of loads.
type APStats struct {
	// AddressPredictable counts loads whose address the predictor matched
	// (any confidence).
	AddressPredictable uint64
	// HighConfidence counts loads passing the high-confidence filter.
	HighConfidence uint64
	// NoFwdPass counts loads additionally passing the no-store-forward
	// predictor.
	NoFwdPass uint64
	// ProbeLaunched counts loads whose early L1 probe found a free port.
	ProbeLaunched uint64
	// ProbeInTime counts loads whose probe data returned before rename
	// (only these become value predictions).
	ProbeInTime uint64
}

// Memory hierarchy levels, from the register file outwards.
const (
	// LevelL1 is a level-1 data cache hit.
	LevelL1 = iota
	// LevelMSHR is a hit on an in-flight miss (an MSHR merge).
	LevelMSHR
	// LevelL2 is a level-2 cache hit.
	LevelL2
	// LevelLLC is a last-level-cache hit.
	LevelLLC
	// LevelMem is a DRAM access.
	LevelMem
	// NumLevels is the number of distinct hit levels.
	NumLevels
)

// LevelName returns the printable name of a hit level.
func LevelName(l int) string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelMSHR:
		return "MSHR"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "Mem"
	default:
		return fmt.Sprintf("level(%d)", l)
	}
}

// IPC returns committed instructions per cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// RFPCoverage returns the fraction of all loads usefully prefetched (the
// paper's coverage definition).
func (s *Sim) RFPCoverage() float64 { return frac(s.RFP.Useful, s.Loads) }

// RFPInjectedFrac returns the fraction of loads with an injected prefetch.
func (s *Sim) RFPInjectedFrac() float64 { return frac(s.RFP.Injected, s.Loads) }

// RFPExecutedFrac returns the fraction of loads whose prefetch executed.
func (s *Sim) RFPExecutedFrac() float64 { return frac(s.RFP.Executed, s.Loads) }

// RFPWrongFrac returns the fraction of loads with a wrong-address prefetch.
func (s *Sim) RFPWrongFrac() float64 { return frac(s.RFP.Wrong, s.Loads) }

// L1PFCoverage returns the fraction of loads covered by an L1 hardware
// prefetch.
func (s *Sim) L1PFCoverage() float64 { return frac(s.L1PF.Useful, s.Loads) }

// L1PFAccuracy returns the fraction of issued L1 prefetches that were
// consumed.
func (s *Sim) L1PFAccuracy() float64 { return frac(s.L1PF.Useful, s.L1PF.Issued) }

// CLPCoverage returns the fraction of loads with a confident cache-level
// prediction.
func (s *Sim) CLPCoverage() float64 { return frac(s.CLP.PredictedTotal(), s.Loads) }

// CLPAccuracy returns the fraction of confident cache-level predictions
// that named the actual serving level.
func (s *Sim) CLPAccuracy() float64 { return frac(s.CLP.CorrectTotal(), s.CLP.PredictedTotal()) }

// CLPLevelAccuracy returns the prediction accuracy for hierarchy level l.
func (s *Sim) CLPLevelAccuracy(l int) float64 { return frac(s.CLP.Correct[l], s.CLP.Predicted[l]) }

// VPCoverage returns the fraction of loads that were value predicted.
func (s *Sim) VPCoverage() float64 { return frac(s.VP.Predicted, s.Loads) }

// LoadLevelFrac returns the fraction of loads served at hierarchy level l.
func (s *Sim) LoadLevelFrac(l int) float64 {
	var total uint64
	for _, c := range s.LoadHitLevel {
		total += c
	}
	return frac(s.LoadHitLevel[l], total)
}

func frac(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Speedup returns the relative IPC gain of s over base, e.g. 0.031 for a
// 3.1% speedup.
func Speedup(base, s *Sim) float64 {
	b := base.IPC()
	if b == 0 {
		return 0
	}
	return s.IPC()/b - 1
}

// GeoMeanSpeedup combines per-workload relative speedups (each expressed as
// a fraction, e.g. 0.031) by geometric mean of the IPC ratios, which is how
// the paper reports mean speedup.
func GeoMeanSpeedup(speedups []float64) float64 {
	if len(speedups) == 0 {
		return 0
	}
	sum := 0.0
	for _, sp := range speedups {
		sum += math.Log(1 + sp)
	}
	return math.Exp(sum/float64(len(speedups))) - 1
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Pct formats a fraction as a percentage with one decimal, e.g. "3.1%".
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Pct2 formats a fraction as a percentage with two decimals.
func Pct2(f float64) string { return fmt.Sprintf("%.2f%%", f*100) }

// Table is a minimal fixed-width text table writer used by the experiment
// harness to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Distribution is a simple histogram over small non-negative integer keys,
// used e.g. for prefetch run-ahead distance distributions.
type Distribution struct {
	counts map[int]uint64
	total  uint64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{counts: make(map[int]uint64)}
}

// Add records one observation of value v.
func (d *Distribution) Add(v int) {
	d.counts[v]++
	d.total++
}

// Total returns the number of observations.
func (d *Distribution) Total() uint64 { return d.total }

// Frac returns the fraction of observations equal to v.
func (d *Distribution) Frac(v int) float64 { return frac(d.counts[v], d.total) }

// Keys returns the observed values in ascending order.
func (d *Distribution) Keys() []int {
	keys := make([]int, 0, len(d.counts))
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Quantile returns the smallest observed value v such that at least q of
// the mass is ≤ v. q must be in [0,1].
func (d *Distribution) Quantile(q float64) int {
	if d.total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(d.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, k := range d.Keys() {
		cum += d.counts[k]
		if cum >= target {
			return k
		}
	}
	keys := d.Keys()
	return keys[len(keys)-1]
}
