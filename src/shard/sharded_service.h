/// \file
/// ShardedService: N shard-local UpdateService instances (each with its
/// own TranslatabilityEngine and DurableStore) behind a deterministic
/// t[X∩Y]-hash router, with cross-shard snapshot composition for readers.
///
/// Write path: a batch is split by ShardRouter into per-shard sub-batches
/// (original positions remembered for error reporting) and applied shard
/// by shard. Each shard keeps the single-writer UpdateService contract
/// internally, so writers targeting different shards run fully in
/// parallel — including their journal fsyncs, which each shard's group
/// commit additionally amortizes across concurrent batches on that shard.
///
/// Semantics relative to the unsharded service (all deliberate, all
/// pinned by tests):
///   * Atomicity is per (shard, batch): a sub-batch either commits or
///     rolls back atomically, but a batch spanning shards can commit on
///     the first shards and fail on a later one. The BatchResult then
///     reports the failing update's original index and names the partial
///     commit in its detail.
///   * FDs whose left side lies outside the join key X∩Y are enforced
///     shard-locally only (see router.h).
///   * A replace whose two tuples route to different shards is decomposed
///     into delete@shard(t1) + insert@shard(t2) — each side gets the
///     Theorem 8/3 treatment on its shard instead of one Theorem 9 check.
///
/// Read path: Snapshot() pins one immutable per-shard snapshot each and
/// sums their versions into a composite version. Per reader thread the
/// composite is monotone (each component is monotone and read in order),
/// stays lock-free (each pin is the UpdateService fast path), and
/// read-your-writes holds: a batch is acked only after every involved
/// shard published, so a snapshot taken after the ack sees all of it.
#ifndef RELVIEW_SHARD_SHARDED_SERVICE_H_
#define RELVIEW_SHARD_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deps/dep_set.h"
#include "relational/relation.h"
#include "service/update_service.h"
#include "shard/router.h"
#include "util/status.h"

namespace relview {

/// Placement and tuning for ShardedService::Create.
struct ShardedServiceOptions {
  /// Number of shards (>= 1). 1 is the degenerate case: one UpdateService
  /// behind a router that maps everything to shard 0.
  int shards = 1;
  /// When non-empty, shard i persists through a DurableStore under
  /// `<store_root>/shard-<i>`; empty runs in-memory.
  std::string store_root;
  /// Per-shard checkpoint cadence (0 = store default / manual).
  uint64_t checkpoint_every = 0;
  /// Per-shard segment rotation threshold (0 = store default).
  uint64_t rotate_records = 0;
  /// Leader gathering window forwarded to ServiceOptions::group_window_us.
  uint32_t group_window_us = 0;
  /// Per-shard group-commit stall watchdog, forwarded to
  /// ServiceOptions::commit_stall_ms (0 disables).
  uint32_t commit_stall_ms = 0;
};

/// One composed observation of all shards: per-shard immutable snapshots
/// plus a composite version (the sum of the component versions — monotone
/// per reader because every component is monotone). Like the component
/// versions, the composite restarts from the per-shard commit counts of
/// the current incarnation after recovery.
struct ShardedSnapshot {
  /// Sum of the per-shard snapshot versions.
  uint64_t version = 0;
  /// One pinned snapshot per shard, indexed by shard id.
  std::vector<ViewSnapshot> shards;

  /// Total view rows across shards (shards partition the view, so the
  /// sum is the composed view's cardinality).
  uint64_t view_size() const;
  /// True when any shard's view contains `t`.
  bool ViewContains(const Tuple& t) const;
  /// Total database rows across shards.
  uint64_t database_size() const;
  /// True when any shard's database contains `t`.
  bool DatabaseContains(const Tuple& t) const;
};

/// The sharded write path: see the file comment for the contract.
class ShardedService {
 public:
  /// Builds `options.shards` shard services over the schema (U, Σ, X, Y),
  /// partitioning the `seed` instance by ShardRouter::ShardOfBase. With a
  /// store_root, each shard recovers whatever a previous incarnation
  /// journaled under the same directory — the router is deterministic, so
  /// recovered shards re-compose into exactly the pre-crash state.
  static Result<std::unique_ptr<ShardedService>> Create(
      const Universe& u, const DependencySet& sigma, const AttrSet& x,
      const AttrSet& y, const Relation& seed, ShardedServiceOptions options);

  /// Routes and applies `updates`. Commits shard by shard in ascending
  /// shard order; on a rejection the result carries the failing update's
  /// index within the ORIGINAL batch, and the detail notes how many
  /// earlier shards had already committed their sub-batches.
  /// The returned timings aggregate across shards (stage/append/commit
  /// sums, shard_mask, straggler attribution); the fan-out renders as a
  /// "router.fanout" span over one "shard.apply" span per touched shard.
  BatchResult ApplyBatch(const std::vector<ViewUpdate>& updates);

  /// Pins one snapshot per shard; lock-free per the UpdateService
  /// Snapshot() fast path.
  ShardedSnapshot Snapshot() const;

  /// Composite version: sum of the per-shard versions.
  uint64_t version() const;

  /// Journal records replayed across all shards during Create.
  uint64_t replayed_updates() const;

  /// Forces a checkpoint on every shard (durable stores only); returns
  /// the summed covered sequence numbers.
  Result<uint64_t> Checkpoint();

  /// Number of shards.
  int shard_count() const { return static_cast<int>(shards_.size()); }
  /// Shard `i`'s service (0 <= i < shard_count()); never null.
  UpdateService* shard(int i) const { return shards_[i].get(); }
  /// The deterministic router (shared by tests and recovery oracles).
  const ShardRouter& router() const { return router_; }

  /// The attribute universe U.
  const Universe& universe() const { return universe_; }
  /// The view attributes X.
  const AttrSet& view_attrs() const { return view_attrs_; }
  /// The complement attributes Y.
  const AttrSet& complement_attrs() const { return complement_attrs_; }

  /// Registers every shard's collectors under `section` with a
  /// per-shard `shard="<i>"` label (see UpdateService::RegisterTelemetry).
  void RegisterTelemetry(TelemetryRegistry* registry,
                         const std::string& section = "service") const;

 private:
  ShardedService(ShardRouter router, Universe universe, AttrSet x, AttrSet y,
                 std::vector<std::unique_ptr<UpdateService>> shards);

  ShardRouter router_;
  const Universe universe_;
  const AttrSet view_attrs_;
  const AttrSet complement_attrs_;
  std::vector<std::unique_ptr<UpdateService>> shards_;
};

}  // namespace relview

#endif  // RELVIEW_SHARD_SHARDED_SERVICE_H_
