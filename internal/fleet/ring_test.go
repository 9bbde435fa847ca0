package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// syntheticLoopIDs returns n keys shaped like real LoopIDs (16 hex chars,
// see api.LoopIDs) prefixed with a model version, matching the router's
// shard-key construction.
func syntheticLoopIDs(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprintf("loop-%d", i)))
		keys[i] = "model-v1\x00loop\x00" + hex.EncodeToString(sum[:])[:16]
	}
	return keys
}

var ringNodes = []string{
	"http://127.0.0.1:7001",
	"http://127.0.0.1:7002",
	"http://127.0.0.1:7003",
}

// TestRingDistributionUniformity shards 1k synthetic LoopIDs over three
// nodes and requires every node's share to stay near uniform. The ring is
// deterministic (SHA-256, no seed), so the observed shares are fixed — the
// tolerance guards the vnode count and hash choice, not run-to-run noise.
func TestRingDistributionUniformity(t *testing.T) {
	r := NewRing(ringNodes)
	keys := syntheticLoopIDs(1000)
	counts := map[string]int{}
	for _, k := range keys {
		counts[owner(r, k)]++
	}
	if len(counts) != len(ringNodes) {
		t.Fatalf("keys landed on %d of %d nodes: %v", len(counts), len(ringNodes), counts)
	}
	for node, c := range counts {
		share := float64(c) / float64(len(keys))
		if share < 0.22 || share > 0.45 {
			t.Errorf("node %s owns %.1f%% of keys, outside [22%%, 45%%]: %v", node, 100*share, counts)
		}
	}
}

// TestRingMinimalMovement checks the consistent-hashing contract: ejecting
// one node moves only the keys that mapped to it, and re-adding it restores
// exactly the original assignment.
func TestRingMinimalMovement(t *testing.T) {
	full := NewRing(ringNodes)
	keys := syntheticLoopIDs(1000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = owner(full, k)
	}

	ejected := ringNodes[1]
	reduced := NewRing([]string{ringNodes[0], ringNodes[2]})
	moved := 0
	for _, k := range keys {
		now := owner(reduced, k)
		if before[k] == ejected {
			moved++
			if now == ejected {
				t.Fatalf("key %q still routes to ejected node", k)
			}
			continue
		}
		if now != before[k] {
			t.Errorf("key %q moved from %s to %s though its node stayed up", k, before[k], now)
		}
	}
	if moved == 0 {
		t.Fatal("ejected node owned no keys; distribution test should have caught this")
	}

	restored := NewRing(ringNodes)
	for _, k := range keys {
		if got := owner(restored, k); got != before[k] {
			t.Errorf("after re-admission key %q routes to %s, originally %s", k, got, before[k])
		}
	}
}

// TestRingDeterminism checks that ring assignment is a pure function of the
// membership set: same nodes in any insertion order (and with duplicates)
// yield identical rings, which is what makes routing stable across router
// restarts.
func TestRingDeterminism(t *testing.T) {
	a := NewRing(ringNodes)
	b := NewRing([]string{ringNodes[2], ringNodes[0], ringNodes[1], ringNodes[0]})
	for _, k := range syntheticLoopIDs(1000) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("key %q: owner %s vs %s across insertion orders", k, owner(a, k), owner(b, k))
		}
	}
}

// TestRingLookupDistinctSuccessors checks the failover contract: Lookup
// returns distinct nodes in preference order, truncated at the membership
// size, and the first entry is the owner.
func TestRingLookupDistinctSuccessors(t *testing.T) {
	r := NewRing(ringNodes)
	for _, k := range syntheticLoopIDs(100) {
		got := r.Lookup(k, 5)
		if len(got) != len(ringNodes) {
			t.Fatalf("Lookup(%q, 5) returned %d nodes, want %d", k, len(got), len(ringNodes))
		}
		if got[0] != owner(r, k) {
			t.Fatalf("Lookup first entry %s != Owner %s", got[0], owner(r, k))
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("Lookup(%q) repeated node %s: %v", k, n, got)
			}
			seen[n] = true
		}
	}
}

// TestRingEmpty checks the empty-membership edge: Lookup and Owner degrade
// to nil/"" instead of panicking — the router hits this when every replica
// is ejected.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Lookup("key", 2); got != nil {
		t.Errorf("empty ring Lookup = %v, want nil", got)
	}
	if got := owner(r, "key"); got != "" {
		t.Errorf("empty ring Owner = %q, want empty", got)
	}
}

// owner returns the single node for key ("" on an empty ring).
func owner(r *Ring, key string) string {
	nodes := r.Lookup(key, 1)
	if len(nodes) == 0 {
		return ""
	}
	return nodes[0]
}
