package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over replica addresses. Each node is placed
// at VNodes pseudo-random positions (virtual nodes) on a 64-bit circle; a key
// routes to the first node clockwise from its own hash. Virtual nodes smooth
// the key distribution, and consistent hashing gives the fleet its two load
// properties:
//
//   - affinity: the same (model version, LoopID/source) key always lands on
//     the same replica, so that replica's per-loop caches stay hot for it;
//   - minimal movement: ejecting or re-admitting one node reassigns only the
//     keys that mapped to it — every other key keeps its replica and its
//     warm caches.
//
// Positions are derived with SHA-256 from the node address and vnode index
// alone, so a ring built from the same membership is identical across
// processes and restarts — no seed, no map-iteration order, no wall clock.
//
// A Ring is immutable after New; membership changes build a new Ring (they
// are rare — probe-driven ejection/re-admission and rolling reloads).
type Ring struct {
	vnodes []vnode  // sorted by position
	nodes  []string // distinct node addresses, sorted
}

type vnode struct {
	pos  uint64
	node int // index into nodes
}

// DefaultVNodes is the virtual-node count used when NewRing is given n <= 0.
// 128 keeps per-node load within a few percent of uniform for small fleets
// while building in microseconds.
const DefaultVNodes = 128

// NewRing builds a ring over the given node addresses with vnodes virtual
// nodes each (vnodes <= 0 means DefaultVNodes). Duplicate addresses collapse
// to one node; insertion order never matters. An empty membership yields an
// empty ring whose Lookup returns nil.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	distinct := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			distinct = append(distinct, n)
		}
	}
	sort.Strings(distinct)
	r := &Ring{nodes: distinct, vnodes: make([]vnode, 0, len(distinct)*vnodes)}
	for i, n := range distinct {
		for v := 0; v < vnodes; v++ {
			r.vnodes = append(r.vnodes, vnode{pos: hash64(n + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].pos != r.vnodes[b].pos {
			return r.vnodes[a].pos < r.vnodes[b].pos
		}
		// A 64-bit collision between two nodes' vnodes is astronomically
		// unlikely; break it by node index so the sort stays deterministic.
		return r.vnodes[a].node < r.vnodes[b].node
	})
	return r
}

// Lookup returns up to n distinct nodes for key in preference order: the
// key's owner first, then the next distinct nodes clockwise — the hedging
// and failover targets. It returns nil on an empty ring.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.vnodes) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	pos := hash64(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].pos >= pos })
	out := make([]string, 0, n)
	taken := make(map[int]bool, n)
	for scanned := 0; scanned < len(r.vnodes) && len(out) < n; scanned++ {
		vn := r.vnodes[(i+scanned)%len(r.vnodes)]
		if !taken[vn.node] {
			taken[vn.node] = true
			out = append(out, r.nodes[vn.node])
		}
	}
	return out
}

// hash64 maps a string onto the ring circle. SHA-256 (truncated) rather than
// a fast non-cryptographic hash: ring placement is off the request hot path
// (keys hash once per request, vnodes once per membership change), and the
// avalanche behavior keeps vnode positions uniform even for node addresses
// that differ in one digit (127.0.0.1:7001 vs :7002).
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
