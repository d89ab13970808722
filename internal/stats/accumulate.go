package stats

import "reflect"

// Accumulate folds src's counters into dst. It is the seed-replica merge
// used by -seeds averaging and by the rfpsimd service: every replica's
// counters are summed, so ratios computed from the sums are
// replica-weighted averages. It walks Sim by reflection (recursively
// through the nested counter blocks and arrays), so a newly added counter
// is summed without being listed anywhere; the test in
// accumulate_test.go sets every numeric field in turn and checks it
// arrives in dst.
func Accumulate(dst, src *Sim) {
	addScaled(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem(), 1)
}

// Scale multiplies every counter of s by w. It is the weighted-replay
// aggregation of sampled simulation (internal/sample): a representative
// interval standing for w intervals contributes its counters w times, so
// ratios over the scaled sums are cluster-weighted averages — the SimPoint
// weighted-CPI construction. It shares Accumulate's walker; the test in
// accumulate_test.go pins Scale(k) == k-fold Accumulate over every field.
func Scale(s *Sim, w uint64) {
	src := *s
	*s = Sim{}
	addScaled(reflect.ValueOf(s).Elem(), reflect.ValueOf(&src).Elem(), w)
}

// addScaled adds w times every numeric leaf of src into the matching leaf
// of dst; both must hold the same type.
func addScaled(dst, src reflect.Value, w uint64) {
	switch dst.Kind() {
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			addScaled(dst.Field(i), src.Field(i), w)
		}
	case reflect.Array:
		for i := 0; i < dst.Len(); i++ {
			addScaled(dst.Index(i), src.Index(i), w)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		dst.SetUint(dst.Uint() + src.Uint()*w)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int()*int64(w))
	case reflect.Float32, reflect.Float64:
		dst.SetFloat(dst.Float() + src.Float()*float64(w))
	}
}
