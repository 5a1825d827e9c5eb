// Package shard is the crash-safe distributed evaluation: a supervisor
// splits the design×config matrix into shards, leases each shard to a
// worker OS process, and merges the per-shard checkpoint journals back
// into one journal whose Tables I–VIII are byte-identical to a
// single-process run.
//
// The coordination model (DESIGN.md §6.10) is lease-based and
// journal-backed:
//
//   - The supervisor is the single appender of the coordination journal
//     (farm.db): every shard's grant → renew* → (release | expire |
//     quarantine) lifecycle is an eval.Lease record, so a killed and
//     restarted supervisor reconstructs ownership from the journal and
//     the farm's history is auditable after the fact.
//   - Each worker process owns exactly one shard journal. Single-writer
//     is enforced structurally: the supervisor kills and reaps the old
//     process before appending the expiry that frees the shard, so no
//     two owners of one journal are ever alive at once.
//   - Liveness is journal progress, not heartbeats: a worker that stops
//     growing its journal for longer than the stall timeout is presumed
//     wedged (the fault harness's stall class is exactly this shape),
//     SIGKILLed, and its lease expired back to the pool.
//   - A shard journal that fails validation on reclaim — CRC damage,
//     header written under different options — is quarantined (renamed
//     aside) and the shard restarts from a fresh journal rather than
//     resuming from bytes that cannot be trusted.
//
// Every flow is a pure function of (design, config, scale, seed), so a
// unit computes the same bytes whichever shard runs it, however many
// times it is restarted; MergeCheckpoints exploits that to refuse
// divergent duplicates and to emit records in canonical order.
package shard

import "repro/internal/eval"

// Split partitions units into at most n contiguous shards in canonical
// (design-major) order, sized as evenly as possible — the first
// len(units) mod n shards carry one extra unit. Contiguity keeps a
// design's configurations together, which minimizes how many shards
// must redundantly compute that design's f_max target. Empty shards are
// never returned: fewer units than n yields len(units) singleton shards.
func Split(units []eval.Unit, n int) [][]eval.Unit {
	if len(units) == 0 {
		return nil
	}
	if n < 1 {
		n = 1
	}
	if n > len(units) {
		n = len(units)
	}
	base, rem := len(units)/n, len(units)%n
	out := make([][]eval.Unit, 0, n)
	off := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, units[off:off+size])
		off += size
	}
	return out
}
