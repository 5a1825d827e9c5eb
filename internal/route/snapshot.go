package route

import "fmt"

// CacheEntry is one valid extraction-cache entry in exportable form:
// the net's dense ID, the journal revision the extraction is keyed on,
// and the extracted RC. Export/Restore move warm cache state across a
// save/load boundary so a resumed flow re-serves the same pointers a
// continuous run would have kept — and, because entries stay keyed on
// the restored design's journal revisions, any net that has since
// moved still re-extracts.
type CacheEntry struct {
	Net int
	Rev uint64
	RC  *NetRC
}

// Export returns the valid entries in net-ID order. Invalid (never
// filled or invalidated) slots are omitted; the RC pointers are shared
// with the cache, matching the immutable-result contract of Extract.
//
//pool:boundary snapshotting shares the cache-owned RC pointers
func (c *Cache) Export() []CacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []CacheEntry
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.rc != nil {
			out = append(out, CacheEntry{Net: i, Rev: e.rev, RC: e.rc})
		}
	}
	return out
}

// Restore installs exported entries into the cache, validating net IDs
// against the design. Restore is for a freshly built cache on a
// restored design; existing entries at the same IDs are overwritten.
//
//pool:boundary restore re-seeds the cache's owned entries
func (c *Cache) Restore(entries []CacheEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) < len(c.d.Nets) {
		grown := make([]cacheEntry, len(c.d.Nets))
		copy(grown, c.entries)
		c.entries = grown
	}
	for _, e := range entries {
		if e.Net < 0 || e.Net >= len(c.entries) {
			return fmt.Errorf("route: restore: cache entry for net %d, design has %d nets", e.Net, len(c.d.Nets))
		}
		if e.RC == nil {
			return fmt.Errorf("route: restore: cache entry for net %d has no RC", e.Net)
		}
		ce := &c.entries[e.Net]
		ce.rc, ce.rev, ce.valid = e.RC, e.Rev, true
	}
	return nil
}
