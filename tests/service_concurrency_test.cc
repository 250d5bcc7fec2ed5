// Concurrency tests for UpdateService: reader threads taking snapshots
// while a writer applies batches must observe only committed versions —
// never a torn intermediate state — and versions must be monotone per
// reader; concurrent durable writers share cohort fsyncs and lose no
// acknowledged batch. Run instrumented with -DRELVIEW_SANITIZE=thread to
// let TSan check the synchronization itself.

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "service/update_service.h"
#include "util/thread_pool.h"

namespace relview {
namespace {

Tuple Row(std::initializer_list<uint32_t> consts) {
  std::vector<Value> vals;
  for (uint32_t c : consts) vals.push_back(Value::Const(c));
  return Tuple(std::move(vals));
}

// A wider instance so batches are visible: depts 10..13, three employees
// each, Emp -> Dept -> Mgr.
std::unique_ptr<UpdateService> MakeService(ServiceOptions options = {}) {
  Universe u = Universe::Parse("Emp Dept Mgr").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("Emp Dept"),
                                   u.SetOf("Dept Mgr"));
  EXPECT_TRUE(vt.ok());
  Relation db(vt->universe().All());
  uint32_t emp = 0;
  for (uint32_t d = 0; d < 4; ++d) {
    for (int i = 0; i < 3; ++i) {
      db.AddRow(Row({emp++, 10 + d, 100 + d}));
    }
  }
  EXPECT_TRUE(vt->Bind(std::move(db)).ok());
  auto service = UpdateService::Create(std::move(*vt), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

TEST(ServiceConcurrencyTest, ReadersSeeOnlyCommittedBatchBoundaries) {
  auto service = MakeService();
  const int base_rows = service->Snapshot().view->size();  // 12
  constexpr int kBatchSize = 4;   // every committed batch adds 4 view rows
  constexpr int kBatches = 50;
  constexpr int kReaders = 4;

  StartGate gate;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      gate.Wait();
      uint64_t last_version = 0;
      while (!done.load(std::memory_order_acquire)) {
        ViewSnapshot snap = service->Snapshot();
        // Versions are monotone from any single reader's point of view.
        if (snap.version < last_version) violations.fetch_add(1);
        last_version = snap.version;
        // Never a torn batch: the row count only takes pre-/post-batch
        // values, and the snapshot is internally consistent (the view is
        // exactly the X-projection of the database it rides with).
        const int extra = snap.view->size() - base_rows;
        if (extra < 0 || extra % kBatchSize != 0) violations.fetch_add(1);
        if (static_cast<uint64_t>(extra) != snap.version * kBatchSize) {
          violations.fetch_add(1);
        }
        if (!snap.database->Project(AttrSet{0, 1}).SameAs(*snap.view)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  gate.Open();
  uint32_t emp = 1000;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<ViewUpdate> batch;
    for (int i = 0; i < kBatchSize; ++i) {
      batch.push_back(
          ViewUpdate::Insert(Row({emp++, 10 + static_cast<uint32_t>(i % 4)})));
    }
    BatchResult r = service->ApplyBatch(batch);
    ASSERT_TRUE(r.ok()) << r.status.ToString() << " " << r.detail;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(service->version(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(service->Snapshot().view->size(),
            base_rows + kBatches * kBatchSize);
}

TEST(ServiceConcurrencyTest, SnapshotsOutliveLaterWrites) {
  auto service = MakeService();
  ViewSnapshot snap = service->Snapshot();
  const int rows_before = snap.view->size();
  // A reader holding a snapshot while many writes land keeps a stable,
  // fully usable relation (shared_ptr keeps the version alive).
  std::thread writer([&] {
    for (uint32_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({2000 + i, 10}))).ok());
    }
  });
  writer.join();
  EXPECT_EQ(snap.view->size(), rows_before);
  EXPECT_EQ(snap.version, 0u);
  EXPECT_EQ(service->Snapshot().view->size(), rows_before + 20);
}

TEST(ServiceConcurrencyTest, ConcurrentReadersViaThreadPool) {
  auto service = MakeService();
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::atomic<bool> done{false};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&] {
      // do-while: every reader observes at least one snapshot even if the
      // writer finishes before this task is scheduled.
      do {
        ViewSnapshot snap = service->Snapshot();
        if (snap.view->size() !=
            snap.database->Project(AttrSet{0, 1}).size()) {
          bad.fetch_add(1);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  for (uint32_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(service->Apply(ViewUpdate::Insert(Row({3000 + i, 11}))).ok());
  }
  done.store(true, std::memory_order_release);
  pool.Wait();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(service->metrics().snapshots(), 0u);
}

TEST(ServiceConcurrencyTest, TwoDurableWritersShareFsyncsAndRecover) {
  ServiceOptions options;
  options.store.dir = ::testing::TempDir() + "service_two_writers.store";
  std::filesystem::remove_all(options.store.dir);
  constexpr int kWriters = 2;
  constexpr uint32_t kPerWriter = 40;
  std::vector<std::vector<Tuple>> acked(kWriters);
  {
    auto service = MakeService(options);
    StartGate gate;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        gate.Wait();
        const uint32_t dept = 10 + static_cast<uint32_t>(w);
        for (uint32_t i = 0; i < kPerWriter; ++i) {
          const Tuple row = Row({1000 + dept * kPerWriter + i, dept});
          if (service->Apply(ViewUpdate::Insert(row)).ok()) {
            acked[static_cast<size_t>(w)].push_back(row);
          }
        }
      });
    }
    gate.Open();
    for (std::thread& t : writers) t.join();
    const uint64_t committed = service->metrics().batches_committed();
    EXPECT_EQ(committed, uint64_t{kWriters} * kPerWriter);
    // Every batch rides a cohort fsync; a cohort never needs more than one.
    EXPECT_LE(service->store()->fsyncs(), committed);
  }
  auto reborn = MakeService(options);
  EXPECT_EQ(reborn->replayed_updates(), uint64_t{kWriters} * kPerWriter);
  const ViewSnapshot snap = reborn->Snapshot();
  for (const std::vector<Tuple>& rows : acked) {
    for (const Tuple& row : rows) {
      EXPECT_TRUE(snap.view->ContainsRow(row)) << "acked row lost";
    }
  }
  reborn.reset();
  std::filesystem::remove_all(options.store.dir);
}

}  // namespace
}  // namespace relview
