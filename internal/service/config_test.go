package service

import (
	"reflect"
	"strings"
	"testing"

	"rfpsim/internal/config"
)

// TestConfigSpecBuildKnobs pins what every knob of ConfigSpec sets on the
// resolved config.Core, name included. It is the knob mapping of both
// rfpsimd requests and the rfpsim flags, so each case compares the whole
// Core: a knob that sets a second field, or the wrong one, fails here.
func TestConfigSpecBuildKnobs(t *testing.T) {
	cases := []struct {
		spec ConfigSpec
		name string
		set  func(c *config.Core) // applied to the Baseline (Baseline2x if Upscaled)
	}{
		{ConfigSpec{}, "baseline", func(*config.Core) {}},
		{ConfigSpec{Upscaled: true}, "baseline-2x", func(*config.Core) {}},
		{ConfigSpec{Upscaled: true, RFP: true}, "baseline-2x+rfp", func(c *config.Core) { c.RFP.Enabled = true }},
		{ConfigSpec{RFP: true}, "baseline+rfp", func(c *config.Core) { c.RFP.Enabled = true }},
		{ConfigSpec{RFP: true, PAT: true}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.UsePAT = true, true
		}},
		{ConfigSpec{RFP: true, Context: true}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.UseContext = true, true
		}},
		{ConfigSpec{RFP: true, CriticalOnly: true}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.CriticalOnly = true, true
		}},
		{ConfigSpec{RFP: true, CLP: true}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.UseCLP = true, true
		}},
		{ConfigSpec{RFP: true, ConfidenceBits: 3}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.ConfidenceBits = true, 3
		}},
		{ConfigSpec{RFP: true, PTEntries: 2048}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFP.PTEntries = true, 2048
		}},
		{ConfigSpec{RFP: true, DedicatedPorts: 1}, "baseline+rfp", func(c *config.Core) {
			c.RFP.Enabled, c.RFPDedicatedPorts = true, 1
		}},
		{ConfigSpec{VP: "eves"}, "baseline+eves", func(c *config.Core) { c.VP.Mode = config.VPEVES }},
		{ConfigSpec{VP: "dlvp"}, "baseline+dlvp", func(c *config.Core) { c.VP.Mode = config.VPDLVP }},
		{ConfigSpec{VP: "composite"}, "baseline+composite", func(c *config.Core) { c.VP.Mode = config.VPComposite }},
		{ConfigSpec{VP: "epp"}, "baseline+epp", func(c *config.Core) { c.VP.Mode = config.VPEPP }},
		{ConfigSpec{Oracle: "l1"}, "baseline+oracle(L1->RF)", func(c *config.Core) { c.Oracle = config.OracleL1ToRF }},
		{ConfigSpec{Oracle: "l2"}, "baseline+oracle(L2->L1)", func(c *config.Core) { c.Oracle = config.OracleL2ToL1 }},
		{ConfigSpec{Oracle: "llc"}, "baseline+oracle(LLC->L2)", func(c *config.Core) { c.Oracle = config.OracleLLCToL2 }},
		{ConfigSpec{Oracle: "mem"}, "baseline+oracle(Mem->LLC)", func(c *config.Core) { c.Oracle = config.OracleMemToLLC }},
		{ConfigSpec{Prefetcher: "stream"}, "baseline+pf(stream)", func(c *config.Core) { c.Mem.Prefetcher = "stream" }},
		{ConfigSpec{Prefetcher: "spp"}, "baseline+pf(spp)", func(c *config.Core) { c.Mem.Prefetcher = "spp" }},
		{ConfigSpec{Prefetcher: "sisb"}, "baseline+pf(sisb)", func(c *config.Core) { c.Mem.Prefetcher = "sisb" }},
		{ConfigSpec{Prefetcher: "managed"}, "baseline+pf(managed)", func(c *config.Core) { c.Mem.Prefetcher = "managed" }},
		{ConfigSpec{HWPrefetch: true}, "baseline", func(c *config.Core) { c.Mem.HWPrefetch = true }},
		{ConfigSpec{LateRegAlloc: true}, "baseline", func(c *config.Core) { c.LateRegAlloc = true }},
		{ConfigSpec{Checks: true}, "baseline", func(c *config.Core) { c.Checks.Enabled = true }},
		{ConfigSpec{RFP: true, VP: "eves", Prefetcher: "spp"}, "baseline+rfp+eves+pf(spp)", func(c *config.Core) {
			c.RFP.Enabled, c.VP.Mode, c.Mem.Prefetcher = true, config.VPEVES, "spp"
		}},
	}
	for _, tc := range cases {
		got, err := tc.spec.Build()
		if err != nil {
			t.Errorf("%+v: Build: %v", tc.spec, err)
			continue
		}
		want := config.Baseline()
		if tc.spec.Upscaled {
			want = config.Baseline2x()
		}
		tc.set(&want)
		want.Name = tc.name
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Build =\n%+v\nwant\n%+v", tc.spec, got, want)
		}
	}
}

// TestConfigSpecBuildRejects: an RFP sub-knob without rfp, and an unknown
// vp, oracle or prefetcher name, must fail to build rather than silently
// run some other configuration.
func TestConfigSpecBuildRejects(t *testing.T) {
	cases := []struct {
		spec ConfigSpec
		msg  string
	}{
		{ConfigSpec{PAT: true}, "rfp is false"},
		{ConfigSpec{Context: true}, "rfp is false"},
		{ConfigSpec{CriticalOnly: true}, "rfp is false"},
		{ConfigSpec{CLP: true}, "rfp is false"},
		{ConfigSpec{ConfidenceBits: 2}, "rfp is false"},
		{ConfigSpec{PTEntries: 2048}, "rfp is false"},
		{ConfigSpec{DedicatedPorts: 1}, "rfp is false"},
		{ConfigSpec{VP: "bogus"}, "unknown vp"},
		{ConfigSpec{Oracle: "bogus"}, "unknown oracle"},
		{ConfigSpec{Prefetcher: "bogus"}, "unknown prefetcher"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Build()
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%+v: Build error = %v, want one containing %q", tc.spec, err, tc.msg)
		}
	}
}
