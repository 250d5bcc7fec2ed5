// Tests for the sharded write path: the deterministic t[X∩Y] router, the
// ShardedService routing/decomposition contract, cross-shard snapshot
// composition (composite-version monotonicity, read-your-writes), the
// documented FD-relaxation pin, recovery of the composed state from the
// per-shard stores, and — under TSan in CI — concurrent multi-shard
// writers racing snapshot readers.

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "deps/dep_set.h"
#include "relational/relation.h"
#include "relational/universe.h"
#include "relational/value.h"
#include "shard/router.h"
#include "shard/sharded_service.h"

namespace relview {
namespace {

constexpr uint32_t kDeptBase = 1'000'000;
constexpr uint32_t kMgrBase = 2'000'000;
constexpr uint32_t kEmps = 64;
constexpr uint32_t kDepts = 8;

uint32_t DeptOf(uint32_t emp) { return kDeptBase + emp % kDepts; }
uint32_t MgrOf(uint32_t emp) { return kMgrBase + emp % kDepts; }

Tuple Row(std::initializer_list<uint32_t> consts) {
  std::vector<Value> vals;
  for (uint32_t c : consts) vals.push_back(Value::Const(c));
  return Tuple(std::move(vals));
}

/// The canonical Emp/Dept/Mgr fixture: schema pieces plus the seeded
/// instance (employees 1..kEmps dealt round-robin over kDepts
/// departments, one manager per department).
struct Fixture {
  Universe u;
  DependencySet sigma;
  AttrSet x;
  AttrSet y;
  Relation seed;

  Fixture()
      : u(Universe::Parse("Emp Dept Mgr").value()),
        x(u.SetOf("Emp Dept")),
        y(u.SetOf("Dept Mgr")),
        seed(u.All()) {
    sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
    for (uint32_t e = 1; e <= kEmps; ++e) {
      seed.AddRow(Row({e, DeptOf(e), MgrOf(e)}));
    }
  }

  std::unique_ptr<ShardedService> Make(ShardedServiceOptions options) {
    auto svc = ShardedService::Create(u, sigma, x, y, seed, options);
    EXPECT_TRUE(svc.ok()) << svc.status().ToString();
    return svc.ok() ? std::move(svc).value() : nullptr;
  }
};

TEST(ShardRouterTest, DeterministicAndKeyedOnJoinProjectionOnly) {
  Fixture f;
  ShardRouter router(f.u, f.x, f.y, 5);
  EXPECT_EQ(router.shards(), 5);
  EXPECT_EQ(router.join_key().ToVector(), f.u.SetOf("Dept").ToVector());

  for (uint32_t e = 1; e <= kEmps; ++e) {
    const int via_view = router.ShardOfView(Row({e, DeptOf(e)}));
    const int via_base = router.ShardOfBase(Row({e, DeptOf(e), MgrOf(e)}));
    // View and base layouts agree, and only the join key matters: a
    // different employee of the same department routes identically.
    EXPECT_EQ(via_view, via_base);
    EXPECT_EQ(via_view, router.ShardOfView(Row({e + 7777, DeptOf(e)})));
    EXPECT_GE(via_view, 0);
    EXPECT_LT(via_view, 5);
    // A freshly built router (new incarnation) routes the same.
    ShardRouter rebuilt(f.u, f.x, f.y, 5);
    EXPECT_EQ(rebuilt.ShardOfView(Row({e, DeptOf(e)})), via_view);
  }
}

TEST(ShardedServiceTest, SeedPartitionComposesBackToTheWhole) {
  Fixture f;
  ShardedServiceOptions options;
  options.shards = 4;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  const ShardedSnapshot snap = svc->Snapshot();
  ASSERT_EQ(static_cast<int>(snap.shards.size()), 4);
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(snap.database_size(), static_cast<uint64_t>(kEmps));
  EXPECT_EQ(snap.view_size(), static_cast<uint64_t>(kEmps));
  for (uint32_t e = 1; e <= kEmps; ++e) {
    EXPECT_TRUE(snap.ViewContains(Row({e, DeptOf(e)}))) << "emp " << e;
  }
  // The partition is the router's: each shard holds exactly its rows.
  for (int s = 0; s < svc->shard_count(); ++s) {
    for (const Tuple& row : svc->shard(s)->Snapshot().database->rows()) {
      EXPECT_EQ(svc->router().ShardOfBase(row), s);
    }
  }
}

TEST(ShardedServiceTest, ReadYourWritesAndCompositeVersionAfterAck) {
  Fixture f;
  ShardedServiceOptions options;
  options.shards = 3;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  uint64_t expected_version = 0;
  for (uint32_t i = 0; i < 12; ++i) {
    const uint32_t e = kEmps + 1 + i;
    std::vector<ViewUpdate> batch;
    batch.push_back(ViewUpdate::Insert(Row({e, DeptOf(e)})));
    ASSERT_TRUE(svc->ApplyBatch(batch).ok());
    ++expected_version;
    // Read-your-writes: the snapshot taken after the ack reflects the
    // batch, and the composite version counts every commit exactly once.
    const ShardedSnapshot snap = svc->Snapshot();
    EXPECT_EQ(snap.version, expected_version);
    EXPECT_TRUE(snap.ViewContains(Row({e, DeptOf(e)})));
  }
}

TEST(ShardedServiceTest, CrossShardReplaceDecomposesIntoDeleteAndInsert) {
  Fixture f;
  ShardedServiceOptions options;
  options.shards = 4;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  // Find a department pair on different shards; move employee 1 there.
  const uint32_t from_dept = DeptOf(1);
  uint32_t to_dept = 0;
  for (uint32_t d = 0; d < kDepts; ++d) {
    const uint32_t cand = kDeptBase + d;
    if (svc->router().ShardOfView(Row({1, cand})) !=
        svc->router().ShardOfView(Row({1, from_dept}))) {
      to_dept = cand;
      break;
    }
  }
  ASSERT_NE(to_dept, 0u) << "all departments hash to one shard?";

  std::vector<ViewUpdate> batch;
  batch.push_back(
      ViewUpdate::Replace(Row({1, from_dept}), Row({1, to_dept})));
  const BatchResult r = svc->ApplyBatch(batch);
  ASSERT_TRUE(r.ok()) << r.status.ToString() << " " << r.detail;

  const ShardedSnapshot snap = svc->Snapshot();
  EXPECT_FALSE(snap.ViewContains(Row({1, from_dept})));
  EXPECT_TRUE(snap.ViewContains(Row({1, to_dept})));
  // The decomposition commits one sub-batch on each side: two commits,
  // so the composite version advanced by two for one logical replace.
  EXPECT_EQ(snap.version, 2u);
}

TEST(ShardedServiceTest, RejectionMapsFailedIndexToOriginalBatchPosition) {
  Fixture f;
  ShardedServiceOptions options;
  options.shards = 4;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  // updates[0] is fine; updates[1] claims a seeded employee for a wrong
  // department that routes to the employee's OWN shard, so the Emp ->
  // Dept conflict is visible shard-locally and rejects there. The
  // reported index must be the caller's (1), not the index inside that
  // shard's sub-batch (0 whenever the two updates routed apart).
  uint32_t emp = 0;
  uint32_t wrong_dept = 0;
  for (uint32_t e = 1; e <= kEmps && emp == 0; ++e) {
    for (uint32_t d = 0; d < kDepts; ++d) {
      const uint32_t cand = kDeptBase + d;
      if (cand != DeptOf(e) &&
          svc->router().ShardOfView(Row({e, cand})) ==
              svc->router().ShardOfView(Row({e, DeptOf(e)}))) {
        emp = e;
        wrong_dept = cand;
        break;
      }
    }
  }
  ASSERT_NE(emp, 0u) << "no same-shard department pair at 4 shards?";

  std::vector<ViewUpdate> batch;
  batch.push_back(ViewUpdate::Insert(Row({kEmps + 100, DeptOf(kEmps + 100)})));
  batch.push_back(ViewUpdate::Insert(Row({emp, wrong_dept})));
  const BatchResult r = svc->ApplyBatch(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.failed_index, 1) << r.detail;
}

// The documented relaxation (see shard/router.h): an FD whose left side
// lies outside X∩Y — Emp → Dept here — is enforced only within a shard.
// This pin keeps the behavior deliberate: if routing or enforcement
// changes, this test must be revisited along with the docs.
TEST(ShardedServiceTest, FdRelaxationAcrossShardsIsTheDocumentedContract) {
  Fixture f;

  // Employee kEmps+1 into two different departments on different shards.
  const uint32_t e = kEmps + 1;
  const uint32_t d1 = DeptOf(e);
  ShardedServiceOptions options;
  options.shards = 4;
  auto sharded = f.Make(options);
  ASSERT_NE(sharded, nullptr);
  uint32_t d2 = 0;
  for (uint32_t d = 0; d < kDepts; ++d) {
    const uint32_t cand = kDeptBase + d;
    if (cand != d1 && sharded->router().ShardOfView(Row({e, cand})) !=
                          sharded->router().ShardOfView(Row({e, d1}))) {
      d2 = cand;
      break;
    }
  }
  ASSERT_NE(d2, 0u);

  std::vector<ViewUpdate> first{ViewUpdate::Insert(Row({e, d1}))};
  std::vector<ViewUpdate> second{ViewUpdate::Insert(Row({e, d2}))};
  ASSERT_TRUE(sharded->ApplyBatch(first).ok());
  EXPECT_TRUE(sharded->ApplyBatch(second).ok())
      << "cross-shard Emp -> Dept enforcement appeared; update the "
         "documented contract before changing this";

  // The unsharded service rejects exactly that second insert.
  ShardedServiceOptions one;
  one.shards = 1;
  auto unsharded = f.Make(one);
  ASSERT_NE(unsharded, nullptr);
  ASSERT_TRUE(unsharded->ApplyBatch(first).ok());
  EXPECT_FALSE(unsharded->ApplyBatch(second).ok());
}

TEST(ShardedServiceTest, RecoveryRecomposesAcrossPerShardStores) {
  Fixture f;
  const std::string root =
      ::testing::TempDir() + "sharded_service_recovery";
  std::filesystem::remove_all(root);

  ShardedServiceOptions options;
  options.shards = 3;
  options.store_root = root;
  options.group_window_us = 200;

  std::vector<uint32_t> acked;
  {
    auto svc = f.Make(options);
    ASSERT_NE(svc, nullptr);
    for (uint32_t i = 0; i < 15; ++i) {
      const uint32_t e = kEmps + 1 + i;
      std::vector<ViewUpdate> batch{ViewUpdate::Insert(Row({e, DeptOf(e)}))};
      ASSERT_TRUE(svc->ApplyBatch(batch).ok());
      acked.push_back(e);
    }
  }  // destroys the service; the journals remain

  auto recovered = f.Make(options);
  ASSERT_NE(recovered, nullptr);
  EXPECT_EQ(recovered->replayed_updates(), acked.size());
  const ShardedSnapshot snap = recovered->Snapshot();
  EXPECT_EQ(snap.database_size(),
            static_cast<uint64_t>(kEmps) + acked.size());
  for (const uint32_t e : acked) {
    EXPECT_TRUE(snap.ViewContains(Row({e, DeptOf(e)})))
        << "acked insert of emp " << e << " lost across recovery";
  }
  std::filesystem::remove_all(root);
}

TEST(ShardedServiceTest, GroupCommitAmortizesFsyncsUnderConcurrency) {
  Fixture f;
  const std::string root =
      ::testing::TempDir() + "sharded_service_group_fsync";
  std::filesystem::remove_all(root);
  ShardedServiceOptions options;
  options.shards = 2;
  options.store_root = root;
  options.group_window_us = 2000;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  constexpr int kWriters = 8;
  constexpr int kPerWriter = 25;
  std::vector<std::thread> writers;
  std::atomic<int> committed{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const uint32_t e = kEmps + 1 +
                           static_cast<uint32_t>(w * kPerWriter + i);
        std::vector<ViewUpdate> batch{
            ViewUpdate::Insert(Row({e, DeptOf(e)}))};
        if (svc->ApplyBatch(batch).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(committed.load(), kWriters * kPerWriter);

  uint64_t fsyncs = 0;
  uint64_t batches = 0;
  for (int s = 0; s < svc->shard_count(); ++s) {
    ASSERT_NE(svc->shard(s)->store(), nullptr);
    fsyncs += svc->shard(s)->store()->fsyncs();
    batches += svc->shard(s)->metrics().batches_committed();
  }
  EXPECT_EQ(batches, static_cast<uint64_t>(kWriters * kPerWriter));
  // The point of group commit: strictly fewer fsyncs than batches. The
  // exact ratio is timing-dependent; the sweep gate in bench/loadgen.cc
  // enforces the quantitative claim (< 0.5 under >= 8 writers).
  EXPECT_LT(fsyncs, batches)
      << "no cohort ever formed under " << kWriters << " writers";
  std::filesystem::remove_all(root);
}

// Concurrent multi-shard writers against snapshot readers: the composite
// version each reader observes must be monotone, and every snapshot must
// be internally consistent (a version-v snapshot composed of per-shard
// pins, never a torn read). Run under TSan in CI, this is also the data-
// race check for the sharded write path.
TEST(ShardedServiceTest, ConcurrentWritersAndReadersSeeMonotoneComposition) {
  Fixture f;
  ShardedServiceOptions options;
  options.shards = 4;
  auto svc = f.Make(options);
  ASSERT_NE(svc, nullptr);

  constexpr int kWriters = 4;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> committed{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const uint32_t e = kEmps + 1 +
                           static_cast<uint32_t>(w * kPerWriter + i);
        std::vector<ViewUpdate> batch{
            ViewUpdate::Insert(Row({e, DeptOf(e)}))};
        if (svc->ApplyBatch(batch).ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      uint64_t prev = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const ShardedSnapshot snap = svc->Snapshot();
        // Monotone composite version per reader.
        EXPECT_GE(snap.version, prev);
        prev = snap.version;
        // Internal consistency: the composition never loses the seed.
        EXPECT_GE(snap.view_size(), static_cast<uint64_t>(kEmps));
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_EQ(committed.load(), kWriters * kPerWriter);
  const ShardedSnapshot final_snap = svc->Snapshot();
  EXPECT_EQ(final_snap.version,
            static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(final_snap.view_size(),
            static_cast<uint64_t>(kEmps + kWriters * kPerWriter));
}

}  // namespace
}  // namespace relview
