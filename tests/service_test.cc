// UpdateService tests: snapshot versioning and immutability, single-update
// and batch semantics (all-or-nothing with failure attribution), durable-
// store recovery on Create, the failed-fsync rule, and metrics accounting.

#include "service/update_service.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "util/failpoint.h"

namespace relview {
namespace {

Tuple Row(std::initializer_list<uint32_t> consts) {
  std::vector<Value> vals;
  for (uint32_t c : consts) vals.push_back(Value::Const(c));
  return Tuple(std::move(vals));
}

ViewTranslator MakeTranslator() {
  Universe u = Universe::Parse("Emp Dept Mgr").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("Emp Dept"),
                                   u.SetOf("Dept Mgr"));
  EXPECT_TRUE(vt.ok()) << vt.status().ToString();
  Relation db(vt->universe().All());
  db.AddRow(Row({1, 10, 100}));
  db.AddRow(Row({2, 10, 100}));
  db.AddRow(Row({3, 20, 200}));
  EXPECT_TRUE(vt->Bind(std::move(db)).ok());
  return std::move(*vt);
}

std::unique_ptr<UpdateService> MakeService(ServiceOptions options = {}) {
  auto service = UpdateService::Create(MakeTranslator(), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

/// Options for a durable service in a fresh store directory `name`.
ServiceOptions FreshStore(const std::string& name) {
  ServiceOptions options;
  options.store.dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(options.store.dir);
  return options;
}

TEST(UpdateServiceTest, CreateRequiresBoundTranslator) {
  Universe u = Universe::Parse("A B").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "A -> B");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("A B"), u.SetOf("B"));
  ASSERT_TRUE(vt.ok());
  auto service = UpdateService::Create(std::move(*vt));
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
}

TEST(UpdateServiceTest, SeedSnapshotIsVersionZero) {
  auto service = MakeService();
  ViewSnapshot snap = service->Snapshot();
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(snap.database->size(), 3);
  EXPECT_EQ(snap.view->size(), 3);
  EXPECT_TRUE(snap.view->ContainsRow(Row({1, 10})));
}

TEST(UpdateServiceTest, ApplyAdvancesVersionAndPreservesOldSnapshots) {
  auto service = MakeService();
  ViewSnapshot before = service->Snapshot();
  ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());
  EXPECT_EQ(service->version(), 1u);
  ViewSnapshot after = service->Snapshot();
  EXPECT_EQ(after.version, 1u);
  EXPECT_TRUE(after.view->ContainsRow(Row({4, 10})));
  EXPECT_TRUE(after.database->ContainsRow(Row({4, 10, 100})));
  // The old snapshot is immutable: it still shows the pre-update world.
  EXPECT_EQ(before.version, 0u);
  EXPECT_FALSE(before.view->ContainsRow(Row({4, 10})));
}

TEST(UpdateServiceTest, RejectedUpdateLeavesStateUntouched) {
  auto service = MakeService();
  Status st = service->Apply(ViewUpdate::Insert(Row({1, 20})));
  EXPECT_EQ(st.code(), StatusCode::kUntranslatable);
  EXPECT_EQ(service->version(), 0u);
  EXPECT_EQ(service->Snapshot().view->size(), 3);
}

TEST(UpdateServiceTest, BatchCommitsAtomicallyAsOneVersion) {
  auto service = MakeService();
  BatchResult r = service->ApplyBatch({
      ViewUpdate::Insert(Row({4, 10})),
      ViewUpdate::Insert(Row({5, 20})),
      ViewUpdate::Delete(Row({2, 10})),
      ViewUpdate::Replace(Row({4, 10}), Row({4, 20})),
  });
  ASSERT_TRUE(r.ok()) << r.status.ToString();
  EXPECT_EQ(r.failed_index, -1);
  EXPECT_EQ(service->version(), 1u);  // one version per batch, not four
  ViewSnapshot snap = service->Snapshot();
  EXPECT_TRUE(snap.view->ContainsRow(Row({4, 20})));
  EXPECT_TRUE(snap.view->ContainsRow(Row({5, 20})));
  EXPECT_FALSE(snap.view->ContainsRow(Row({2, 10})));
}

TEST(UpdateServiceTest, BatchRollsBackOnFirstRejection) {
  auto service = MakeService();
  BatchResult r = service->ApplyBatch({
      ViewUpdate::Insert(Row({4, 10})),   // fine alone
      ViewUpdate::Insert(Row({1, 20})),   // untranslatable: emp 1 moves
      ViewUpdate::Delete(Row({1, 10})),   // never reached
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kUntranslatable);
  EXPECT_EQ(r.failed_index, 1);
  EXPECT_FALSE(r.detail.empty());
  // All-or-nothing: even the valid first update is rolled back.
  EXPECT_EQ(service->version(), 0u);
  EXPECT_FALSE(service->Snapshot().view->ContainsRow(Row({4, 10})));
  EXPECT_EQ(service->metrics().batches_rolled_back(), 1u);
}

TEST(UpdateServiceTest, BatchSeesItsOwnEarlierUpdates) {
  auto service = MakeService();
  // Deleting both dept-10 employees one by one: the second deletion is
  // checked against the view *after* the first, where it is the last
  // dept-10 row and must be refused (condition (a) of Theorem 8).
  BatchResult r = service->ApplyBatch({
      ViewUpdate::Delete(Row({1, 10})),
      ViewUpdate::Delete(Row({2, 10})),
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.failed_index, 1);
  EXPECT_EQ(service->version(), 0u);
}

TEST(UpdateServiceTest, EmptyBatchIsANoOp) {
  auto service = MakeService();
  BatchResult r = service->ApplyBatch({});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(service->version(), 0u);
  EXPECT_EQ(service->metrics().batches_committed(), 0u);
}

TEST(UpdateServiceTest, InvalidArgumentRejectionsAreReportedPerCode) {
  auto service = MakeService();
  // Replace with t2 already in the view degenerates (see replacement.h).
  BatchResult r = service->ApplyBatch(
      {ViewUpdate::Replace(Row({1, 10}), Row({2, 10}))});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(
      service->metrics().rejected_by_code(StatusCode::kInvalidArgument), 1u);
}

TEST(UpdateServiceTest, MetricsCountAcceptedAndRejectedPerKind) {
  auto service = MakeService();
  ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());
  ASSERT_TRUE(service->Apply(ViewUpdate::Delete(Row({4, 10}))).ok());
  ASSERT_TRUE(
      service->Apply(ViewUpdate::Replace(Row({1, 10}), Row({1, 20}))).ok());
  EXPECT_FALSE(service->Apply(ViewUpdate::Insert(Row({2, 20}))).ok());

  const ServiceMetrics& m = service->metrics();
  EXPECT_EQ(m.accepted(UpdateKind::kInsert), 1u);
  EXPECT_EQ(m.accepted(UpdateKind::kDelete), 1u);
  EXPECT_EQ(m.accepted(UpdateKind::kReplace), 1u);
  EXPECT_EQ(m.rejected(UpdateKind::kInsert), 1u);
  EXPECT_EQ(m.rejected_by_code(StatusCode::kUntranslatable), 1u);
  EXPECT_EQ(m.total_accepted(), 3u);
  EXPECT_EQ(m.total_rejected(), 1u);
  EXPECT_EQ(m.check_latency().count(), 4u);
  EXPECT_GT(m.check_latency().mean_nanos(), 0.0);
  // Identity-free updates all hit the apply phase.
  EXPECT_EQ(m.apply_latency().count(), 3u);

  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"accepted_insert\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rejected_code_Untranslatable\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"check_latency\":{"), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must be single-line";
}

TEST(UpdateServiceTest, JournaledServiceRecoversStateOnRestart) {
  const ServiceOptions options = FreshStore("service_recover.store");
  {
    auto service = MakeService(options);
    ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());
    ASSERT_TRUE(service
                    ->ApplyBatch({ViewUpdate::Insert(Row({5, 20})),
                                  ViewUpdate::Delete(Row({2, 10}))})
                    .ok());
  }
  // "Kill" and restart from the seed: the journal replays to the exact
  // pre-kill relation.
  auto reborn = MakeService(options);
  EXPECT_EQ(reborn->replayed_updates(), 3u);
  ViewSnapshot snap = reborn->Snapshot();
  EXPECT_TRUE(snap.view->ContainsRow(Row({4, 10})));
  EXPECT_TRUE(snap.view->ContainsRow(Row({5, 20})));
  EXPECT_FALSE(snap.view->ContainsRow(Row({2, 10})));
  EXPECT_EQ(snap.database->size(), 4);
  // And the revived service keeps journaling.
  ASSERT_TRUE(reborn->Apply(ViewUpdate::Delete(Row({5, 20}))).ok());
  reborn.reset();
  auto third = MakeService(options);
  EXPECT_EQ(third->replayed_updates(), 4u);
  EXPECT_FALSE(third->Snapshot().view->ContainsRow(Row({5, 20})));
  third.reset();
  std::filesystem::remove_all(options.store.dir);
}

TEST(UpdateServiceTest, RejectedBatchIsNotJournaled) {
  const ServiceOptions options = FreshStore("service_no_journal.store");
  {
    auto service = MakeService(options);
    EXPECT_FALSE(service
                     ->ApplyBatch({ViewUpdate::Insert(Row({4, 10})),
                                   ViewUpdate::Insert(Row({1, 20}))})
                     .ok());
    EXPECT_EQ(service->store()->seq(), 0u);  // nothing reached the journal
  }
  auto reborn = MakeService(options);
  EXPECT_EQ(reborn->replayed_updates(), 0u);
  EXPECT_EQ(reborn->Snapshot().view->size(), 3);
  reborn.reset();
  std::filesystem::remove_all(options.store.dir);
}

TEST(UpdateServiceTest, FailedCohortFsyncRefusesWritesUntilReopen) {
  struct ClearFailpoints {
    ~ClearFailpoints() { Failpoints::ClearAll(); }
  } clear;
  const ServiceOptions options = FreshStore("service_fsync_fault.store");
  {
    auto service = MakeService(options);
    ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());

    ASSERT_TRUE(Failpoints::Set("commit.fsync", "error").ok());
    const BatchResult failed =
        service->ApplyBatch({ViewUpdate::Insert(Row({5, 20}))});
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
    EXPECT_EQ(failed.failed_index, -1);  // not a verdict: every update passed
    // Not acknowledged, so not published either.
    EXPECT_EQ(service->version(), 1u);
    EXPECT_FALSE(service->Snapshot().view->ContainsRow(Row({5, 20})));
    EXPECT_EQ(service->metrics().batches_committed(), 1u);

    // A failed fsync is never retried: clearing the fault does not make
    // the store writable again.
    Failpoints::ClearAll();
    const BatchResult later =
        service->ApplyBatch({ViewUpdate::Insert(Row({6, 10}))});
    EXPECT_FALSE(later.ok());
    EXPECT_EQ(later.status.code(), StatusCode::kInternal);
    EXPECT_EQ(service->version(), 1u);
  }
  // Reopening recovers every acknowledged batch. The failed batch's bytes
  // reached the file before its fsync failed, so it may replay too —
  // acked ⊆ recovered allows that; the refused write never got that far.
  auto reborn = MakeService(options);
  const ViewSnapshot snap = reborn->Snapshot();
  EXPECT_TRUE(snap.view->ContainsRow(Row({4, 10})));
  EXPECT_FALSE(snap.view->ContainsRow(Row({6, 10})));
  EXPECT_GE(reborn->replayed_updates(), 1u);
  EXPECT_LE(reborn->replayed_updates(), 2u);
  ASSERT_TRUE(reborn->Apply(ViewUpdate::Insert(Row({6, 10}))).ok());
  reborn.reset();
  std::filesystem::remove_all(options.store.dir);
}

TEST(UpdateServiceTest, FailedRotationFsyncRefusesWritesUntilReopen) {
  // Rotation fsyncs the full segment before closing it; that fsync
  // failing poisons the store exactly like a failed cohort fsync.
  struct ClearFailpoints {
    ~ClearFailpoints() { Failpoints::ClearAll(); }
  } clear;
  ServiceOptions options = FreshStore("service_rotate_fault.store");
  options.store.rotate_records = 1;
  {
    auto service = MakeService(options);
    ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());
    ASSERT_TRUE(Failpoints::Set("commit.fsync", "error").ok());
    EXPECT_EQ(service->Apply(ViewUpdate::Insert(Row({5, 20}))).code(),
              StatusCode::kInternal);
    Failpoints::ClearAll();
    EXPECT_EQ(service->Apply(ViewUpdate::Insert(Row({6, 10}))).code(),
              StatusCode::kInternal);
    EXPECT_EQ(service->version(), 1u);
  }
  auto reborn = MakeService(options);
  EXPECT_EQ(reborn->replayed_updates(), 1u);  // the failed batches never
                                              // reached the journal
  ASSERT_TRUE(reborn->Apply(ViewUpdate::Insert(Row({5, 20}))).ok());
  reborn.reset();
  std::filesystem::remove_all(options.store.dir);
}

TEST(UpdateServiceTest, RolledBackBatchLowersNoEngineGauge) {
  auto service = MakeService();
  ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({4, 10}))).ok());
  const EngineStats before = service->metrics().engine_gauges();
  // The first update applies in place, the second is rejected: the
  // rollback reinstalls the saved relation, which drops the engine.
  EXPECT_FALSE(service
                   ->ApplyBatch({ViewUpdate::Insert(Row({5, 20})),
                                 ViewUpdate::Insert(Row({1, 20}))})
                   .ok());
  // The next batch rebuilds the engine and republishes the gauges.
  ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({6, 10}))).ok());
  const EngineStats after = service->metrics().engine_gauges();
#define RELVIEW_EXPECT_NOT_LOWER(name) \
  EXPECT_GE(after.name, before.name) << #name;
  RELVIEW_ENGINE_STAT_FIELDS(RELVIEW_EXPECT_NOT_LOWER)
#undef RELVIEW_EXPECT_NOT_LOWER
  EXPECT_EQ(after.index_rebuilds, before.index_rebuilds + 1);
}

}  // namespace
}  // namespace relview
