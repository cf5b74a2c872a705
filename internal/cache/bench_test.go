package cache

import (
	"testing"

	"repro/internal/mem"
)

// l1Config is Table II's L1: 32 KB, 4-way, 128 sets.
var l1Config = Config{SizeBytes: 32 << 10, Ways: 4}

var sink int

// BenchmarkAccessHit is the repository benchmark's cache.kernel_ns_per_access
// leg: demand hits cycling over 256 resident lines of the L1.
func BenchmarkAccessHit(b *testing.B) {
	c := New(l1Config)
	for i := 0; i < 256; i++ {
		c.Insert(line(i), Shared, mem.LineData{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(line(i%256)) != nil {
			sink++
		}
	}
}

// BenchmarkInsertEvict is the cache.kernel_ns_per_insert_evict leg: distinct
// lines streamed through a fresh L1, so once it is full every insert evicts.
func BenchmarkInsertEvict(b *testing.B) {
	c := New(l1Config)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, evicted := c.Insert(line(i), Shared, mem.LineData{}); evicted {
			sink++
		}
	}
}
