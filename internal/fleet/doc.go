// Package fleet is the multi-replica serving tier: a front-end router
// (`neurovec fleet`) that shards /v2/compile traffic across N `neurovec
// serve` replicas by consistent hash, with health-probe-driven replica
// lifecycle (ejection and re-admission), bounded per-replica forwarding with
// failover and hedging, a shared response-cache tier above the replicas' own
// caches, and a coordinated rolling hot-reload that promotes a new
// checkpoint replica-by-replica with zero dropped requests.
//
// The pieces:
//
//   - Ring (ring.go): a consistent-hash ring with virtual nodes. The shard
//     key is (fleet model version, LoopID) for single-loop sources and
//     (fleet model version, source hash) otherwise, so the interactive
//     single-loop workload keeps per-loop cache affinity across cosmetic
//     edits while membership changes move a minimal key range.
//   - Router (router.go): terminates all three /v2/compile request forms —
//     single, batch envelope, NDJSON stream — and reassembles responses in
//     request order. Stream lines forward one by one; a batch envelope
//     forwards one sub-envelope per owning replica and splices the
//     replicas' records into its answer, with a per-file fallback for
//     whatever a sub-envelope cannot answer. A replica dying mid-batch
//     re-routes only its in-flight forwards.
//   - Replica lifecycle (replica.go): /readyz probes on a fixed cadence;
//     FailAfter consecutive failures eject a replica from the ring,
//     ReadyAfter successes re-admit it. Forward-path transport failures
//     count toward the same streak, so a crash is ejected at request speed,
//     not probe speed.
//   - Shared cache tier (router.go): an LRU over rendered replica responses
//     keyed exactly like the replicas' own response caches
//     (service.CompileCacheKey) under the fleet-consistent model version —
//     the version every ready replica agreed on. A mixed-version fleet
//     (mid-roll) disables the tier entirely, so cached bytes never cross
//     model versions.
//   - Rolling reload (reload.go): POST /fleet/reload drains, reloads,
//     verifies, and re-admits each replica in turn, aborting if replicas
//     diverge on the new checkpoint's version.
//   - Spawner (spawn.go): without `-join`, `neurovec fleet` execs and
//     supervises local replica processes, restarting crashed ones on their
//     original ports.
//
// The router deliberately terminates requests rather than proxying bodies
// verbatim: decomposing batches is what enables per-file sharding, per-file
// fallback, and caching. For the single-request form the replica's response
// bytes pass through unmodified, and a batch answer splices the replicas'
// record bytes, so a fleet answer is byte-identical to a single-process
// `neurovec serve` answer up to request IDs. See docs/FLEET.md for topology
// and failure semantics.
package fleet
