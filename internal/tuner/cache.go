package tuner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"

	"mha/internal/netmodel"
)

// The schedule cache: a plain LRU over canonical keys, with a JSON
// persistence form so a daemon restart warm-starts instead of
// re-synthesizing. Everything about it is deterministic: recency lives
// in a linked list, the map is only an index (never iterated), and Save
// walks the list oldest-first — so the same query sequence always
// persists to the same bytes, which is what the determinism test diffs.

// cacheEntry is one cached decision plus its canonical wire bytes.
type cacheEntry struct {
	key string
	dec *Decision
	raw []byte
}

// lruCache is not self-locking; the Service's mutex guards it.
type lruCache struct {
	cap       int
	ll        *list.List // front = most recently used
	idx       map[string]*list.Element
	evictions int64
}

func newLRU(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), idx: make(map[string]*list.Element)}
}

func (c *lruCache) len() int { return c.ll.Len() }

// get returns the entry and marks it most recently used.
func (c *lruCache) get(key string) *cacheEntry {
	el := c.idx[key]
	if el == nil {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts (or refreshes) an entry, evicting the least recently used
// one when over capacity.
func (c *lruCache) put(e *cacheEntry) {
	if el := c.idx[e.key]; el != nil {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.idx[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		delete(c.idx, back.Value.(*cacheEntry).key)
		c.ll.Remove(back)
		c.evictions++
	}
}

// keys lists the cached keys, most recently used first.
func (c *lruCache) keys() []string {
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*cacheEntry).key)
	}
	return out
}

// The persisted form. Entries are written oldest-first, so replaying
// them through put in file order reproduces the exact recency order the
// cache had when saved.
type persistFile struct {
	Version int            `json:"version"`
	Entries []persistEntry `json:"entries"`
}

type persistEntry struct {
	Key      string          `json:"key"`
	Decision json.RawMessage `json:"decision"`
}

// persistVersion 2 is the tuple form of the embedded schedules; a
// version-1 file (object transfers) is refused, and the daemon starts
// cold.
const persistVersion = 2

// save writes the cache in the persistence format, each decision as the
// bytes it is served as.
func (c *lruCache) save(w io.Writer) error {
	pf := persistFile{Version: persistVersion}
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		pf.Entries = append(pf.Entries, persistEntry{Key: e.key, Decision: e.raw})
	}
	return json.NewEncoder(w).Encode(pf)
}

// load replays a persisted cache into c, fully re-verifying every
// decision (see DecodeDecision). It returns the number of entries
// restored; any invalid entry fails the whole load, leaving c as it was
// plus the entries already replayed — callers treat an error as "start
// cold".
func (c *lruCache) load(r io.Reader, prm *netmodel.Params) (int, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var pf persistFile
	if err := dec.Decode(&pf); err != nil {
		return 0, fmt.Errorf("tuner: bad cache file: %v", err)
	}
	if pf.Version != persistVersion {
		return 0, fmt.Errorf("tuner: cache file version %d, want %d", pf.Version, persistVersion)
	}
	n := 0
	for i, pe := range pf.Entries {
		d, err := DecodeDecision(pe.Decision, prm)
		if err != nil {
			return n, fmt.Errorf("tuner: cache entry %d: %v", i, err)
		}
		if d.Key != pe.Key {
			return n, fmt.Errorf("tuner: cache entry %d: key mismatch", i)
		}
		// Re-encode rather than trusting the file's spacing: the cached
		// raw bytes must be exactly what a fresh synthesis would emit.
		raw, err := d.Encode()
		if err != nil {
			return n, err
		}
		c.put(&cacheEntry{key: d.Key, dec: d, raw: raw})
		n++
	}
	return n, nil
}
