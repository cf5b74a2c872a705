package cache

// ChunkEntries is the slab's allocation unit.
const ChunkEntries = chunkEntries

// EntryCap reports how many entries c's slab holds: resident, freed or not
// yet handed out.
func (c *Cache) EntryCap() int { return len(c.chunks) * chunkEntries }

// EntriesOut reports how many entries c has handed out of its slab since New
// or the last Reset: the most lines it has held at once in that time
// (TestSlabHoldsPeakResidency).
func (c *Cache) EntriesOut() int { return c.used }
