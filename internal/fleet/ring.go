// Package fleet is the sharded-serving layer over wpserved: a
// coordinator that owns a consistent-hash ring of backends, splits
// every incoming batch into per-backend sub-batches keyed by each
// cell's workload, fans the sub-batches out concurrently and merges
// the answers back into original cell order.
//
// Sharding by workload is what turns N independent daemons into one
// logical cache: every cell of a workload, of either layout, routes to
// the same backend. The fleet therefore simulates a cold cell exactly
// once, executes each workload's program once (the owner replays its
// recording, relocated where needed, for the workload's later cells),
// and serves every repeat from that backend's warm run cache or
// persistent store. The ring moves only ~1/(N+1) of the key space when
// a backend joins or leaves, so scaling the fleet re-shards the
// minimum possible slice of the warm set.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per backend. Per-backend
// load deviation shrinks as 1/sqrt(vnodes); 1024 points per backend
// holds the worst backend within ~±15% of the ideal share over the
// canonical wpload key population for 4–16 backends (TestRingBalance
// pins this), at a ring that still binary-searches in nanoseconds and
// costs ~16KB per backend.
const DefaultVNodes = 1024

// Ring is an immutable consistent-hash ring over named backends.
// Build a new one to add or remove backends; lookups are safe for
// concurrent use.
type Ring struct {
	backends []string
	points   []ringPoint // sorted by hash, clockwise
}

type ringPoint struct {
	hash    uint64
	backend int
}

// hash64 maps any string onto the ring's key space. sha256 rather
// than a seeded fast hash so placement is stable across processes,
// architectures and releases — the property that lets N backends and
// a coordinator agree on ownership with zero coordination.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// NewRing builds a ring with vnodes virtual points per backend
// (DefaultVNodes when vnodes <= 0). Backend names must be non-empty
// and unique — they are the hash seeds, so renaming a backend moves
// its share of the key space.
func NewRing(backends []string, vnodes int) (*Ring, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one backend")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(backends))
	r := &Ring{
		backends: append([]string(nil), backends...),
		points:   make([]ringPoint, 0, len(backends)*vnodes),
	}
	for i, name := range backends {
		if name == "" {
			return nil, fmt.Errorf("fleet: backend %d has an empty name", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate backend %q", name)
		}
		seen[name] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hash64(fmt.Sprintf("%s#%d", name, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by backend index so the
		// ring is still a deterministic function of its inputs.
		return r.points[a].backend < r.points[b].backend
	})
	return r, nil
}

// Backends returns the backend names in construction order.
func (r *Ring) Backends() []string { return append([]string(nil), r.backends...) }

// Len returns the number of backends.
func (r *Ring) Len() int { return len(r.backends) }

// VNodes returns the virtual points per backend.
func (r *Ring) VNodes() int { return len(r.points) / len(r.backends) }

// find locates the first ring point clockwise of the key's hash.
func (r *Ring) find(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the backend index that owns the key: the backend of
// the first virtual point at or clockwise of the key's hash.
func (r *Ring) Owner(key string) int {
	return r.points[r.find(key)].backend
}

// Sequence returns up to n distinct backend indices in failover
// order: the owner first, then each further backend in the order its
// first virtual point appears clockwise. Every backend appears at
// most once; n is clamped to the backend count.
func (r *Ring) Sequence(key string, n int) []int {
	if n > len(r.backends) {
		n = len(r.backends)
	}
	if n <= 0 {
		return nil
	}
	seq := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i, start := 0, r.find(key); i < len(r.points) && len(seq) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			seq = append(seq, p.backend)
		}
	}
	return seq
}
