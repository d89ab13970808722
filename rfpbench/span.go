package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Name is "<layer>.<call>"; the layer is the internal/ package the call
// enters ("bench" marks the benchmark's own phases). Parent is the span
// that caused it (0 for a root). Times are nanoseconds since the tracer
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type spanKey struct{}

// tracer records spans in memory when on; when off every call is a no-op,
// so untraced runs pay one branch per timed call.
type tracer struct {
	on    bool
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func nop() {}

// begin opens a span under the span carried by ctx and returns a context
// carrying the new span plus the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if !t.on {
		return ctx, nop
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	id, end := t.beginID(parent, name)
	return context.WithValue(ctx, spanKey{}, id), end
}

// beginID opens a span under an explicit parent ID, for spans whose cause
// crossed a process-internal boundary the context does not (an HTTP
// request carries its parent in a header).
func (t *tracer) beginID(parent int64, name string) (int64, func()) {
	if !t.on {
		return 0, nop
	}
	id := t.ids.Add(1)
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		t.mu.Unlock()
	}
}

// spanID returns the ID of the span ctx carries (0 for none).
func spanID(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time: the duration of its spans
// minus the part of each span's interval that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		self[layerOf(s.Name)] += time.Duration(d)
	}
	return self
}

// covered returns how many nanoseconds of p's interval the union of the
// children's intervals covers (children may overlap: a sweep runs units
// concurrently).
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
