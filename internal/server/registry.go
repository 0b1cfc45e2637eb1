package server

import (
	"fmt"
	"sort"
	"sync"

	"distjoin"
)

// Registry is the named-index registry of the query service: every
// persisted R*-tree (or in-memory index) is opened exactly once and then
// shared by every cursor that names it. Concurrent read-only joins over one
// index are sound — the R*-tree's buffer pool serializes page access — but
// a registered index must not be mutated while the server is live, the same
// rule the library applies to a single in-process join.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	// obs is the server-wide view every R*-tree's buffer pool reports node
	// I/O to (see SetObserver); nil until a server adopts the registry.
	obs *distjoin.Recorder
}

// regEntry is one registered index plus its ownership: close is non-nil
// when the registry opened the index itself (OpenFile) and must release it.
// idx is the R*-tree behind si, nil for structures without a buffer pool.
type regEntry struct {
	name  string
	kind  string
	si    distjoin.SpatialIndex
	idx   *distjoin.Index
	close func() error
}

// IndexInfo describes one registered index, as served by /v1/indexes.
type IndexInfo struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"`
	Objects int    `json:"objects"`
	Dims    int    `json:"dims"`
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*regEntry)}
}

// Register adds an index the caller owns (the registry never closes it).
// kind is a human-readable structure name ("rtree", "quadtree", ...).
func (r *Registry) Register(name, kind string, si distjoin.SpatialIndex) error {
	return r.add(&regEntry{name: name, kind: kind, si: si})
}

// RegisterIndex adds a caller-owned R*-tree index under the given name.
func (r *Registry) RegisterIndex(name string, idx *distjoin.Index) error {
	return r.add(&regEntry{name: name, kind: "rtree", si: idx.AsSpatialIndex(), idx: idx})
}

// OpenFile opens a persisted R*-tree (CreateIndexFile + Flush) and registers
// it. The registry owns the index and closes it on Close.
func (r *Registry) OpenFile(name, path string) error {
	idx, err := distjoin.OpenIndexFile(path, nil)
	if err != nil {
		return fmt.Errorf("server: opening index %q from %s: %w", name, path, err)
	}
	e := &regEntry{name: name, kind: "rtree", si: idx.AsSpatialIndex(), idx: idx, close: idx.Close}
	if err := r.add(e); err != nil {
		idx.Close()
		return err
	}
	return nil
}

func (r *Registry) add(e *regEntry) error {
	if e.name == "" {
		return fmt.Errorf("server: index name must be non-empty")
	}
	if e.si == nil {
		return fmt.Errorf("server: index %q is nil", e.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.name]; dup {
		return fmt.Errorf("server: index %q already registered", e.name)
	}
	r.entries[e.name] = e
	r.observe(e)
	return nil
}

// SetObserver attaches the server-wide recorder to the buffer pool of every
// registered R*-tree, now and at every later registration: node reads,
// writes and buffer hits flow into rec's counts (and its pool-hit-ratio
// gauge). A server calls it with its Config.Obs; without it the daemon's
// node-I/O metrics stay at zero.
func (r *Registry) SetObserver(rec *distjoin.Recorder) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = rec
	for _, e := range r.entries {
		r.observe(e)
	}
}

// observe attaches the registry's recorder to one entry's pool. Callers
// hold mu.
func (r *Registry) observe(e *regEntry) {
	if e.idx != nil && r.obs != nil {
		e.idx.SetObserver(r.obs, nil)
	}
}

// Get returns the named index for query construction.
func (r *Registry) Get(name string) (distjoin.SpatialIndex, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("server: unknown index %q", name)
	}
	return e.si, nil
}

// List returns every registered index, sorted by name.
func (r *Registry) List() []IndexInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]IndexInfo, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, IndexInfo{
			Name:    e.name,
			Kind:    e.kind,
			Objects: e.si.NumObjects(),
			Dims:    e.si.Dims(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close releases every registry-owned index (those added with OpenFile) and
// empties the registry. It returns the first close error.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for name, e := range r.entries {
		if e.close != nil {
			if err := e.close(); err != nil && first == nil {
				first = err
			}
		}
		delete(r.entries, name)
	}
	return first
}
