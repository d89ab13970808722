package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rfpsim/internal/config"
	"rfpsim/internal/isa"
	"rfpsim/internal/mem"
	"rfpsim/internal/predictor"
	"rfpsim/internal/rfp"
	"rfpsim/internal/stats"
	"rfpsim/internal/trace"
	"rfpsim/internal/tracefile"
)

// calls is the host time of a run of calls into one structure.
type calls struct {
	d time.Duration
	n uint64
}

func (c *calls) add(d time.Duration, n uint64) { c.d += d; c.n += n }

func (c calls) nsPerCall() float64 { return ratio(float64(c.d.Nanoseconds()), float64(c.n)) }

// runReplays drives each public structure alone with the uop stream the
// panel simulates (one stream per panel workload, under the RFP
// configuration): the generator, the cache hierarchy on every load and
// store, TAGE on every branch and the register-file prefetcher on every
// load.
func (b *bench) runReplays(ctx context.Context) error {
	ctx, endAll := b.tr.begin(ctx, "bench.replays")
	defer endAll()
	cfg := config.Baseline().WithRFP()
	var gen, access, tage, alloc calls
	for _, name := range b.w.panel {
		spec, err := seededSpec(name, b.seed)
		if err != nil {
			return err
		}
		ops := make([]isa.MicroOp, b.w.warmup+b.w.measure)
		g := spec.New()
		_, end := b.tr.begin(ctx, "trace.Generator.Next")
		t0 := time.Now()
		for i := range ops {
			if !g.Next(&ops[i]) {
				end()
				return fmt.Errorf("replay: %s stream ended after %d uops", name, i)
			}
		}
		gen.add(time.Since(t0), uint64(len(ops)))
		end()

		h := mem.NewHierarchy(cfg.Mem, cfg.Oracle, &stats.Sim{})
		var n uint64
		_, end = b.tr.begin(ctx, "mem.Hierarchy.Access")
		t0 = time.Now()
		for i := range ops {
			op := &ops[i]
			if op.IsLoad() || op.IsStore() {
				h.Access(op.Addr, op.PC, uint64(i), op.IsLoad())
				n++
			}
		}
		access.add(time.Since(t0), n)
		end()

		tp := predictor.NewTAGE()
		n = 0
		_, end = b.tr.begin(ctx, "predictor.TAGE")
		t0 = time.Now()
		for i := range ops {
			if op := &ops[i]; op.IsBranch() {
				tp.Predict(op.PC)
				tp.Update(op.PC, op.Taken)
				n++
			}
		}
		tage.add(time.Since(t0), n)
		end()

		// The path hash advances on branches the way the core's
		// dispatch-time history does.
		pf := rfp.NewPrefetcher(cfg.RFP, spec.Seed)
		var path uint64
		n = 0
		_, end = b.tr.begin(ctx, "rfp.Prefetcher")
		t0 = time.Now()
		for i := range ops {
			op := &ops[i]
			switch {
			case op.IsBranch():
				taken := uint64(0)
				if op.Taken {
					taken = 1
				}
				path = (path<<4 ^ (op.PC>>2)&0x7 ^ taken) & 0xFFFF
			case op.IsLoad():
				pf.Allocate(op.PC, path)
				pf.Commit(op.PC, path, op.Addr)
				n++
			}
		}
		alloc.add(time.Since(t0), n)
		end()
	}
	b.setCalls("trace.gen_ns_per_uop", gen)
	b.setCalls("mem.access_ns", access)
	b.setCalls("predictor.tage_ns", tage)
	b.setCalls("rfp.allocate_ns", alloc)
	return nil
}

// encodeTrace writes n uops of the seeded generator as an .rfpt file.
func encodeTrace(spec trace.Spec, n uint64) ([]byte, error) {
	var buf bytes.Buffer
	w := tracefile.NewWriter(&buf)
	g := spec.New()
	var op isa.MicroOp
	for i := uint64(0); i < n; i++ {
		if !g.Next(&op) {
			return nil, fmt.Errorf("trace: stream ended after %d uops", i)
		}
		if err := w.Write(&op); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeTrace times tracefile.Reader over the uploaded bytes, repeating
// until at least minReplay has passed, and checks every pass decodes the
// uop count written.
func (b *bench) decodeTrace(ctx context.Context, raw []byte, want uint64) {
	_, end := b.tr.begin(ctx, "tracefile.Reader.Next")
	defer end()
	o := b.tally.begin()
	var dec calls
	var op isa.MicroOp
	for dec.d < minReplay {
		t0 := time.Now()
		r, err := tracefile.NewReader(bytes.NewReader(raw), "upload")
		if !o.check(err == nil, "trace decode: %v", err) {
			return
		}
		var n uint64
		for r.Next(&op) {
			n++
		}
		dec.add(time.Since(t0), n)
		if !o.check(r.Err() == nil && n == want, "trace decode: %d of %d uops, err %v", n, want, r.Err()) {
			return
		}
	}
	b.setCalls("tracefile.decode_ns_per_uop", dec)
}
