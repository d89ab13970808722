package service

import (
	"fmt"

	"rfpsim/internal/config"
)

// ConfigSpec is the wire-format description of a core configuration: the
// same knobs cmd/rfpsim exposes as flags, resolved against the paper's
// Baseline (or Baseline-2x) defaults. The zero value is the plain
// baseline.
type ConfigSpec struct {
	// Upscaled selects the futuristic Baseline-2x core.
	Upscaled bool `json:"upscaled,omitempty"`

	// RFP enables Register File Prefetching; the remaining RFP knobs only
	// apply when it is set.
	RFP bool `json:"rfp,omitempty"`
	// PAT uses the Page Address Table PT encoding (§5.5.4).
	PAT bool `json:"pat,omitempty"`
	// Context adds the path-based context prefetcher (§5.5.3).
	Context bool `json:"context,omitempty"`
	// CriticalOnly restricts injection to criticality-flagged loads.
	CriticalOnly bool `json:"critical_only,omitempty"`
	// CLP enables the cache-level-predicted RFP arming schedule
	// (docs/predictors.md): predicted-DRAM loads are skipped, predicted
	// near hits arm early, and criticality gates contested queue slots.
	CLP bool `json:"clp,omitempty"`
	// ConfidenceBits overrides the confidence counter width (1-4).
	ConfidenceBits int `json:"confidence_bits,omitempty"`
	// PTEntries overrides the Prefetch Table size.
	PTEntries int `json:"pt_entries,omitempty"`
	// DedicatedPorts reserves that many L1 ports for RFP (Figure 14).
	DedicatedPorts int `json:"dedicated_ports,omitempty"`

	// VP selects value prediction: "eves", "dlvp", "composite" or "epp".
	VP string `json:"vp,omitempty"`
	// Oracle selects the idealized prefetch study: "l1", "l2", "llc" or
	// "mem".
	Oracle string `json:"oracle,omitempty"`

	// LateRegAlloc enables the §3.3 late register allocation variation.
	LateRegAlloc bool `json:"late_reg_alloc,omitempty"`
	// HWPrefetch adds the hardware stream cache prefetcher.
	HWPrefetch bool `json:"hw_prefetch,omitempty"`
	// Prefetcher selects a specific L1 hardware prefetcher ("stream",
	// "spp", "sisb" or "managed"); it supersedes the boolean HWPrefetch
	// knob, which remains as the legacy spelling of "stream".
	Prefetcher string `json:"prefetcher,omitempty"`

	// Checks enables the runtime invariant checker (docs/checking.md).
	// Violations ride back in the stats block and feed the daemon's
	// rfpsim_check_violations_total counter. Timing results are unchanged;
	// the knob still keys a distinct content address because the stats
	// block gains the checker counters.
	Checks bool `json:"checks,omitempty"`
}

// Build resolves the spec into a validated core configuration. It is the
// one knob path: rfpsimd requests, sweep grids and the rfpsim flags all
// resolve through it.
func (s ConfigSpec) Build() (config.Core, error) {
	cfg := config.Baseline()
	if s.Upscaled {
		cfg = config.Baseline2x()
	}
	if s.RFP {
		cfg = cfg.WithRFP()
		cfg.RFP.UsePAT = s.PAT
		cfg.RFP.UseContext = s.Context
		cfg.RFP.CriticalOnly = s.CriticalOnly
		cfg.RFP.UseCLP = s.CLP
		if s.ConfidenceBits != 0 {
			cfg.RFP.ConfidenceBits = s.ConfidenceBits
		}
		if s.PTEntries != 0 {
			cfg.RFP.PTEntries = s.PTEntries
		}
		cfg.RFPDedicatedPorts = s.DedicatedPorts
	} else if s.PAT || s.Context || s.CriticalOnly || s.CLP || s.ConfidenceBits != 0 || s.PTEntries != 0 || s.DedicatedPorts != 0 {
		return config.Core{}, fmt.Errorf("service: RFP knobs set but rfp is false")
	}
	switch s.VP {
	case "":
	case "eves":
		cfg = cfg.WithVP(config.VPEVES)
	case "dlvp":
		cfg = cfg.WithVP(config.VPDLVP)
	case "composite":
		cfg = cfg.WithVP(config.VPComposite)
	case "epp":
		cfg = cfg.WithVP(config.VPEPP)
	default:
		return config.Core{}, fmt.Errorf("service: unknown vp mode %q", s.VP)
	}
	switch s.Oracle {
	case "":
	case "l1":
		cfg = cfg.WithOracle(config.OracleL1ToRF)
	case "l2":
		cfg = cfg.WithOracle(config.OracleL2ToL1)
	case "llc":
		cfg = cfg.WithOracle(config.OracleLLCToL2)
	case "mem":
		cfg = cfg.WithOracle(config.OracleMemToLLC)
	default:
		return config.Core{}, fmt.Errorf("service: unknown oracle %q", s.Oracle)
	}
	cfg.LateRegAlloc = s.LateRegAlloc
	cfg.Mem.HWPrefetch = s.HWPrefetch
	if s.Prefetcher != "" {
		cfg = cfg.WithPrefetcher(s.Prefetcher)
	}
	cfg.Checks.Enabled = s.Checks
	if err := cfg.Validate(); err != nil {
		return config.Core{}, fmt.Errorf("service: invalid config: %w", err)
	}
	return cfg, nil
}
