package stats

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestIPC(t *testing.T) {
	s := &Sim{Cycles: 200, Instructions: 500}
	if got := s.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	var zero Sim
	if zero.IPC() != 0 {
		t.Error("IPC of zero-value Sim must be 0")
	}
}

func TestCoverageFractions(t *testing.T) {
	s := &Sim{Loads: 1000}
	s.RFP.Injected = 720
	s.RFP.Executed = 480
	s.RFP.Useful = 434
	s.RFP.Wrong = 50
	if got := s.RFPCoverage(); got != 0.434 {
		t.Errorf("coverage = %v", got)
	}
	if got := s.RFPInjectedFrac(); got != 0.72 {
		t.Errorf("injected = %v", got)
	}
	if got := s.RFPExecutedFrac(); got != 0.48 {
		t.Errorf("executed = %v", got)
	}
	if got := s.RFPWrongFrac(); got != 0.05 {
		t.Errorf("wrong = %v", got)
	}
	var empty Sim
	if empty.RFPCoverage() != 0 {
		t.Error("coverage with zero loads must be 0")
	}
}

func TestLoadLevelFrac(t *testing.T) {
	s := &Sim{}
	s.LoadHitLevel[LevelL1] = 928
	s.LoadHitLevel[LevelMSHR] = 30
	s.LoadHitLevel[LevelL2] = 20
	s.LoadHitLevel[LevelLLC] = 12
	s.LoadHitLevel[LevelMem] = 10
	if got := s.LoadLevelFrac(LevelL1); got != 0.928 {
		t.Errorf("L1 frac = %v", got)
	}
	sum := 0.0
	for l := 0; l < NumLevels; l++ {
		sum += s.LoadLevelFrac(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("level fractions sum to %v, want 1", sum)
	}
}

func TestLevelName(t *testing.T) {
	for l := 0; l < NumLevels; l++ {
		if LevelName(l) == "" {
			t.Errorf("empty name for level %d", l)
		}
	}
	if !strings.Contains(LevelName(99), "99") {
		t.Error("unknown level name should include the number")
	}
}

func TestSpeedup(t *testing.T) {
	base := &Sim{Cycles: 1000, Instructions: 2000}
	fast := &Sim{Cycles: 1000, Instructions: 2062}
	got := Speedup(base, fast)
	if math.Abs(got-0.031) > 1e-9 {
		t.Errorf("speedup = %v, want 0.031", got)
	}
	var zero Sim
	if Speedup(&zero, fast) != 0 {
		t.Error("speedup vs zero base must be 0")
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	if GeoMeanSpeedup(nil) != 0 {
		t.Error("empty geomean must be 0")
	}
	// Uniform speedups: geomean equals the value.
	got := GeoMeanSpeedup([]float64{0.05, 0.05, 0.05})
	if math.Abs(got-0.05) > 1e-12 {
		t.Errorf("uniform geomean = %v", got)
	}
	// +100% and -50% cancel exactly under geometric mean.
	got = GeoMeanSpeedup([]float64{1.0, -0.5})
	if math.Abs(got) > 1e-12 {
		t.Errorf("cancelled geomean = %v, want 0", got)
	}
}

// Property: geomean of per-workload speedups is bounded by min and max.
func TestGeoMeanBoundedProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sp := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			sp[i] = float64(r)/512 - 0.2 // range [-0.2, +0.3)
			lo = math.Min(lo, sp[i])
			hi = math.Max(hi, sp[i])
		}
		g := GeoMeanSpeedup(sp)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty must be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.031); got != "3.1%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct2(0.0415); got != "4.15%" {
		t.Errorf("Pct2 = %q", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Workload", "Speedup")
	tb.AddRow("spec06_mcf", "5.0%")
	tb.AddRow("spec17_x264", "2.0%", "extra-dropped")
	out := tb.String()
	if !strings.Contains(out, "spec06_mcf") || !strings.Contains(out, "Speedup") {
		t.Errorf("table missing content:\n%s", out)
	}
	if strings.Contains(out, "extra-dropped") {
		t.Error("overflow cell should be dropped")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution()
	if d.Quantile(0.5) != 0 {
		t.Error("quantile of empty distribution must be 0")
	}
	for i := 0; i < 60; i++ {
		d.Add(1)
	}
	for i := 0; i < 40; i++ {
		d.Add(5)
	}
	if d.Total() != 100 {
		t.Errorf("total = %d", d.Total())
	}
	if got := d.Frac(1); got != 0.6 {
		t.Errorf("frac(1) = %v", got)
	}
	if got := d.Quantile(0.5); got != 1 {
		t.Errorf("median = %d, want 1", got)
	}
	if got := d.Quantile(0.9); got != 5 {
		t.Errorf("p90 = %d, want 5", got)
	}
	if got := d.Quantile(1.0); got != 5 {
		t.Errorf("p100 = %d, want 5", got)
	}
	keys := d.Keys()
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 5 {
		t.Errorf("keys = %v", keys)
	}
}

// Property: quantile is monotone in q and always an observed key.
func TestDistributionQuantileProperty(t *testing.T) {
	f := func(vals []uint8) bool {
		d := NewDistribution()
		seen := map[int]bool{}
		for _, v := range vals {
			d.Add(int(v))
			seen[int(v)] = true
		}
		if len(vals) == 0 {
			return true
		}
		prev := math.MinInt
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			k := d.Quantile(q)
			if !seen[k] || k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotStats(t *testing.T) {
	s := SlotStats{Retired: 50, StallLoad: 30, StallExec: 15, StallEmpty: 5}
	if s.Total() != 100 {
		t.Errorf("total = %d", s.Total())
	}
	r, l, e, f := s.Frac()
	if r != 0.5 || l != 0.3 || e != 0.15 || f != 0.05 {
		t.Errorf("fracs = %v %v %v %v", r, l, e, f)
	}
	var zero SlotStats
	r, l, e, f = zero.Frac()
	if r+l+e+f != 0 {
		t.Error("zero slots must give zero fractions")
	}
}

// TestCheckStatsEachVisitsEveryField gives each CheckStats field a distinct
// power of two by reflection and asserts that Each reports every value
// exactly once, under distinct names, and that Total is their sum. A new
// invariant counter forgotten in Each fails here instead of vanishing
// from reports, metrics and Total.
func TestCheckStatsEachVisitsEveryField(t *testing.T) {
	var c CheckStats
	v := reflect.ValueOf(&c).Elem()
	want := map[uint64]string{}
	var sum uint64
	for i := 0; i < v.NumField(); i++ {
		val := uint64(1) << i
		v.Field(i).SetUint(val)
		want[val] = v.Type().Field(i).Name
		sum += val
	}
	seenNames := map[string]bool{}
	c.Each(func(name string, count uint64) {
		if name == "" || seenNames[name] {
			t.Errorf("Each name %q is empty or repeated", name)
		}
		seenNames[name] = true
		if _, ok := want[count]; !ok {
			t.Errorf("Each(%q) reported %d: not a field value, or a field visited twice", name, count)
		}
		delete(want, count)
	})
	for _, field := range want {
		t.Errorf("Each never visits CheckStats.%s", field)
	}
	if got := c.Total(); got != sum {
		t.Errorf("Total = %d, want the sum of every field %d", got, sum)
	}
}
