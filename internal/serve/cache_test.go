package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	puno "repro"
)

// testArtifact builds a small valid punores/2 artifact whose bytes depend
// on n (the cache stores opaque validated artifacts, so tests need real
// encodings, not arbitrary bytes).
func testArtifact(t *testing.T, n uint64) []byte {
	t.Helper()
	res := &puno.Result{Workload: "fixture", Commits: n, FalseAbortHist: []uint64{}}
	data, err := puno.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func testKey(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestCachePutGet(t *testing.T) {
	c, err := NewCache(4, "")
	if err != nil {
		t.Fatal(err)
	}
	want := testArtifact(t, 1)
	c.Put(testKey(1), want)
	got, ok := c.Get(testKey(1))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get after Put: ok=%v, %d bytes", ok, len(got))
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("Get of absent key succeeded")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after one hit and one miss: %+v", st)
	}
}

// Hit-after-restart: a fresh Cache over the same directory must serve the
// previous process's artifacts, counting them as disk hits, and admit them
// back into memory (the second Get is a memory hit).
func TestCacheHitAfterRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := testArtifact(t, 7)
	c1.Put(testKey(7), want)

	c2, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	// A status probe sees the disk artifact and moves nothing: the Get
	// below is still the first disk hit.
	if !c2.has(testKey(7)) || c2.has(testKey(8)) {
		t.Fatal("has disagrees with the disk tier")
	}
	got, ok := c2.Get(testKey(7))
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("restart Get: ok=%v, byte-equal=%v", ok, bytes.Equal(got, want))
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("first post-restart Get should be a disk hit: %+v", st)
	}
	if _, ok := c2.Get(testKey(7)); !ok {
		t.Fatal("re-admitted entry missing")
	}
	if st := c2.Stats(); st.Hits != 1 {
		t.Fatalf("second post-restart Get should be a memory hit: %+v", st)
	}
}

// A corrupted or truncated disk artifact must read as a miss, never be
// served: the checksum gate is what lets the service trust disk bytes.
func TestCacheRejectsCorruptDiskArtifact(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	data := testArtifact(t, 3)
	c.Put(testKey(3), data)

	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x41
	if err := os.WriteFile(filepath.Join(dir, testKey(3).String()+".res"), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.has(testKey(3)) {
		t.Fatal("corrupt disk artifact reported present")
	}
	if _, ok := c2.Get(testKey(3)); ok {
		t.Fatal("corrupt disk artifact served")
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("corrupt artifact should count as a miss: %+v", st)
	}
}

// A disk tier that cannot take a write costs a counter, not the result:
// the artifact is still served from memory, and no half-written file is
// left where a later Get would find it.
func TestCachePutSurvivesDiskFailure(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(4, dir)
	if err != nil {
		t.Fatal(err)
	}
	// Key 1: the temp name is taken by a directory, so the write fails.
	// Key 2: the final name is a non-empty directory, so the rename fails.
	if err := os.Mkdir(c.path(testKey(1))+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(c.path(testKey(2)), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	for k := byte(1); k <= 2; k++ {
		want := testArtifact(t, uint64(k))
		c.Put(testKey(k), want)
		if got, ok := c.Get(testKey(k)); !ok || !bytes.Equal(got, want) {
			t.Fatalf("key %d: artifact not served from memory after a failed disk write", k)
		}
	}
	if st := c.Stats(); st.DiskErrs != 2 {
		t.Fatalf("disk errors = %d, want 2: %+v", st.DiskErrs, st)
	}
	if _, err := os.Stat(c.path(testKey(2)) + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rename left its temp file behind (stat error %v)", err)
	}
}

// LRU pressure: the least recently used entry is evicted from memory, but
// the disk tier still has it, so the eviction costs a disk hit — not a
// re-simulation.
func TestCacheLRUEviction(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b2, d := testArtifact(t, 1), testArtifact(t, 2), testArtifact(t, 3)
	c.Put(testKey(1), a)
	c.Put(testKey(2), b2)
	if _, ok := c.Get(testKey(1)); !ok { // touch 1: now 2 is LRU
		t.Fatal("key 1 missing before pressure")
	}
	c.Put(testKey(3), d) // evicts 2
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after eviction: %+v", st)
	}
	got, ok := c.Get(testKey(2))
	if !ok || !bytes.Equal(got, b2) {
		t.Fatal("evicted entry not recoverable from disk")
	}
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("evicted entry should return via the disk tier: %+v", st)
	}

	// Memory-only cache: eviction is final.
	m, err := NewCache(1, "")
	if err != nil {
		t.Fatal(err)
	}
	m.Put(testKey(1), a)
	m.Put(testKey(2), b2)
	if _, ok := m.Get(testKey(1)); ok {
		t.Fatal("memory-only cache resurrected an evicted entry")
	}
}

// LRU order must follow access order, not insertion order.
func TestCacheLRUAccessOrder(t *testing.T) {
	c, err := NewCache(2, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), testArtifact(t, 1))
	c.Put(testKey(2), testArtifact(t, 2))
	if _, ok := c.Get(testKey(1)); !ok {
		t.Fatal("key 1 missing")
	}
	c.Put(testKey(3), testArtifact(t, 3))
	if _, ok := c.lookup(testKey(1)); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.lookup(testKey(2)); ok {
		t.Fatal("least recently used entry survived")
	}
}
