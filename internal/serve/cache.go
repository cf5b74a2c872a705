package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	puno "repro"
)

// Cache is the content-addressed result store: an in-memory LRU over
// encoded punores/2 artifacts, optionally backed by an unbounded on-disk
// directory. Determinism makes every hit provably fresh, so there is no
// expiry, no validation round-trip, and no invalidation protocol — the key
// embeds the code version, so a new build simply addresses a disjoint part
// of the store.
//
// Memory eviction never deletes the disk artifact: disk is the backing
// tier, and an evicted entry is re-admitted (and counted as a disk hit) on
// its next lookup. Disk artifacts are checksum-verified on load; a corrupt
// or truncated file is treated as a miss rather than served.
type Cache struct {
	dir string // "" = memory only
	max int

	// readFile is os.ReadFile; tests swap it to hold a disk read open.
	readFile func(string) ([]byte, error)

	mu        sync.Mutex
	entries   map[Key]*centry
	head      *centry // most recently used
	tail      *centry // least recently used
	hits      uint64  // memory hits
	diskHits  uint64  // misses satisfied by the disk tier
	misses    uint64  // true misses (neither tier)
	evictions uint64
	diskErrs  uint64 // artifact write failures (result still served from memory)
}

// centry is one resident artifact on the LRU list.
type centry struct {
	key        Key
	data       []byte
	prev, next *centry
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	DiskHits  uint64 `json:"disk_hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	DiskErrs  uint64 `json:"disk_errors"`
}

// NewCache builds a cache holding at most maxEntries artifacts in memory
// (<=0 selects 1024). A non-empty dir enables the disk tier; it is created
// if absent.
func NewCache(maxEntries int, dir string) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir: %w", err)
		}
	}
	return &Cache{dir: dir, max: maxEntries, readFile: os.ReadFile, entries: make(map[Key]*centry)}, nil
}

// Get returns the artifact stored under k. The memory tier is consulted
// first; on a memory miss the disk tier is read, verified, and re-admitted.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if data, ok := c.lookup(k); ok {
		return data, true
	}
	if data, ok := c.readDisk(k); ok {
		c.install(k, data, true)
		return data, true
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// has reports whether either tier holds a servable artifact for k. A job
// status probe is not a use: it moves no counter and no LRU position.
func (c *Cache) has(k Key) bool {
	c.mu.Lock()
	_, ok := c.entries[k]
	c.mu.Unlock()
	if !ok {
		_, ok = c.readDisk(k)
	}
	return ok
}

// readDisk reads and verifies k's disk artifact; a missing, corrupt or
// truncated file, or no disk tier at all, is a miss.
func (c *Cache) readDisk(k Key) ([]byte, bool) {
	if c.dir == "" {
		return nil, false
	}
	data, err := c.readFile(c.path(k))
	if err == nil {
		_, err = puno.DecodeResult(data)
	}
	return data, err == nil
}

// Put stores an artifact under k in both tiers. The disk write is atomic
// (temp file + rename) so a crash mid-write can never leave a half
// artifact where Get would find it; a failed disk write is counted but not
// fatal — the result is still served from memory. Concurrent Puts for one
// key cannot happen (singleflight serializes production per key), so the
// per-key temp name is unique.
func (c *Cache) Put(k Key, data []byte) {
	c.install(k, data, false)
	if c.dir == "" {
		return
	}
	path := c.path(k)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		c.countDiskErr()
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		c.countDiskErr()
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		Hits:      c.hits,
		DiskHits:  c.diskHits,
		Misses:    c.misses,
		Evictions: c.evictions,
		DiskErrs:  c.diskErrs,
	}
}

// lookup is the memory-tier probe every request pays: one map access and
// an LRU relink under the lock, no allocation.
//
//puno:hot
func (c *Cache) lookup(k Key) ([]byte, bool) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.moveToFront(e)
	c.hits++
	data := e.data
	c.mu.Unlock()
	return data, true
}

// install admits an artifact to the memory tier, evicting from the LRU
// tail past capacity.
func (c *Cache) install(k Key, data []byte, fromDisk bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fromDisk {
		c.diskHits++
	}
	if e, ok := c.entries[k]; ok {
		e.data = data
		c.moveToFront(e)
		return
	}
	e := &centry{key: k, data: data}
	c.entries[k] = e
	c.pushFront(e)
	for len(c.entries) > c.max {
		lru := c.tail
		c.unlink(lru)
		delete(c.entries, lru.key)
		c.evictions++
	}
}

func (c *Cache) countDiskErr() {
	c.mu.Lock()
	c.diskErrs++
	c.mu.Unlock()
}

func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.String()+".res")
}

// pushFront links e as the most recently used entry. Callers hold c.mu.
func (c *Cache) pushFront(e *centry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// unlink removes e from the LRU list. Callers hold c.mu.
func (c *Cache) unlink(e *centry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront relinks e as most recently used. Callers hold c.mu.
func (c *Cache) moveToFront(e *centry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
