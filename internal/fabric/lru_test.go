package fabric

import (
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRU drives one LRU per case through a sequence of operations and
// checks the surviving keys (most recent first), the byte total and the
// keys handed to onEvict.
func TestLRU(t *testing.T) {
	type put struct {
		key  string
		size int64
	}
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        func(c *LRU[string])
		want       []string
		wantBytes  int64
		wantEvict  []string
	}{
		{
			name: "entry cap evicts least recent", maxEntries: 2,
			ops: func(c *LRU[string]) {
				for _, p := range []put{{"a", 1}, {"b", 1}, {"c", 1}} {
					c.Put(p.key, p.key, p.size)
				}
			},
			want: []string{"c", "b"}, wantBytes: 2, wantEvict: []string{"a"},
		},
		{
			name: "byte cap evicts until under", maxBytes: 10,
			ops: func(c *LRU[string]) {
				for _, p := range []put{{"a", 4}, {"b", 4}, {"c", 4}, {"d", 7}} {
					c.Put(p.key, p.key, p.size)
				}
			},
			want: []string{"d"}, wantBytes: 7, wantEvict: []string{"a", "b", "c"},
		},
		{
			name: "oversized newest entry survives", maxEntries: 4, maxBytes: 10,
			ops: func(c *LRU[string]) {
				c.Put("a", "a", 3)
				c.Put("big", "big", 25)
			},
			want: []string{"big"}, wantBytes: 25, wantEvict: []string{"a"},
		},
		{
			name: "Get refreshes recency", maxEntries: 2,
			ops: func(c *LRU[string]) {
				c.Put("a", "a", 1)
				c.Put("b", "b", 1)
				if v, ok := c.Get("a"); !ok || v != "a" {
					t.Errorf("Get(a) = %q, %v", v, ok)
				}
				c.Put("c", "c", 1)
			},
			want: []string{"c", "a"}, wantBytes: 2, wantEvict: []string{"b"},
		},
		{
			name: "Contains leaves recency alone", maxEntries: 2,
			ops: func(c *LRU[string]) {
				c.Put("a", "a", 1)
				c.Put("b", "b", 1)
				if !c.Contains("a") || c.Contains("z") {
					t.Error("Contains reports the wrong membership")
				}
				c.Put("c", "c", 1)
			},
			want: []string{"c", "b"}, wantBytes: 2, wantEvict: []string{"a"},
		},
		{
			name: "re-Put refreshes without replacing",
			ops: func(c *LRU[string]) {
				c.Put("a", "a", 1)
				c.Put("b", "b", 1)
				c.Put("a", "other", 9)
			},
			want: []string{"a", "b"}, wantBytes: 2,
		},
		{
			name: "Remove does not fire onEvict", maxEntries: 3,
			ops: func(c *LRU[string]) {
				c.Put("a", "a", 2)
				c.Put("b", "b", 3)
				c.Remove("a")
				c.Remove("missing")
				if _, ok := c.Get("a"); ok {
					t.Error("Get(a) hit after Remove")
				}
			},
			want: []string{"b"}, wantBytes: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			c := NewLRU(tc.maxEntries, tc.maxBytes, func(key string, v string) {
				if key != v {
					t.Errorf("onEvict(%q, %q): value does not match key", key, v)
				}
				evicted = append(evicted, key)
			})
			tc.ops(c)
			if got := c.Values(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Values() = %v, want %v", got, tc.want)
			}
			if c.Len() != len(tc.want) {
				t.Errorf("Len() = %d, want %d", c.Len(), len(tc.want))
			}
			if c.Bytes() != tc.wantBytes {
				t.Errorf("Bytes() = %d, want %d", c.Bytes(), tc.wantBytes)
			}
			if !reflect.DeepEqual(evicted, tc.wantEvict) {
				t.Errorf("evicted %v, want %v", evicted, tc.wantEvict)
			}
		})
	}
}

// TestLRUConcurrent hammers one LRU from several goroutines (run under
// -race) and checks the caps and the byte total still hold afterwards.
func TestLRUConcurrent(t *testing.T) {
	var evictions atomic.Int64
	c := NewLRU(8, 40, func(string, int) { evictions.Add(1) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := strconv.Itoa((g*7 + i) % 20)
				c.Put(key, i, int64(1+i%6))
				c.Get(key)
				if i%5 == 0 {
					c.Remove(strconv.Itoa(i % 20))
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 8 || c.Bytes() > 40 {
		t.Errorf("caps broken: %d entries, %d bytes", c.Len(), c.Bytes())
	}
	if evictions.Load() == 0 {
		t.Error("no evictions under a working set larger than the caps")
	}
}
