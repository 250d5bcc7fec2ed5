// bench_service: end-to-end throughput of the UpdateService under a mixed
// insert/delete/replace write workload with concurrent snapshot readers.
//
// Each "read" is a serving-shaped operation: take a snapshot and run a
// point membership query against its view. Two experiments:
//
//  1. Read scaling — aggregate read throughput at 1/2/4/8 reader threads
//     with a saturating mixed writer. On a machine with >= 4 cores the
//     versioned immutable snapshots must give >= 2x aggregate throughput
//     at 4 readers vs 1 (readers share nothing hot with the writer; the
//     fast path is one atomic load plus a thread-local hit). With fewer
//     cores the ratio is capped by time-slicing, not by the design: N
//     CPU-bound readers plus a saturating writer fair-share one core, so
//     the aggregate is bounded by (N/(N+1)) / (1/2) — 1.60x at N=4 — no
//     matter how good the read path is. The bench therefore gates the 2x
//     requirement on hardware_concurrency() >= 4 and otherwise reports
//     measured/cap (a contention-free read path sits near 1.0).
//
//  2. Lock-coupled baseline (informational) — the same workload against a
//     naive facade whose readers must take the writer's mutex, so every
//     read can wait out an in-flight Theorem 3/8/9 check. With real cores
//     the snapshot design wins by construction; on one core the scheduler
//     time-slices both designs identically (a blocked reader and a
//     descheduled reader cost the same), so the numbers converge and only
//     the writer-starvation column distinguishes them.
//
// Also reports write-path throughput: single updates, batched updates,
// and durable updates (a DurableStore, one cohort fsync per batch).
//
// Usage: bench_service [rows] [seconds-per-point] [--json=PATH]

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "util/annotations.h"
#include "service/update_service.h"
#include "util/small_util.h"
#include "util/thread_pool.h"

namespace relview {
namespace {

ViewTranslator MakeBoundTranslator(int rows) {
  bench::ChainWorkload w = bench::MakeChainWorkload(/*width=*/4, rows,
                                                    /*fanin=*/4, /*seed=*/1);
  DependencySet sigma;
  sigma.fds = w.fds;
  auto vt = ViewTranslator::Create(w.universe, sigma, w.x, w.y);
  if (!vt.ok()) {
    std::fprintf(stderr, "translator: %s\n", vt.status().ToString().c_str());
    std::exit(1);
  }
  Status st = vt->Bind(w.database);
  if (!st.ok()) {
    std::fprintf(stderr, "bind: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return std::move(*vt);
}

std::unique_ptr<UpdateService> MakeService(int rows,
                                           const std::string& store_dir) {
  ServiceOptions options;
  options.store.dir = store_dir;
  auto service = UpdateService::Create(MakeBoundTranslator(rows), options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*service);
}

/// The mixed write workload, expressed against any apply callback: insert
/// a fresh view tuple into an existing tail group, attempt a canonical
/// rejection, replace the fresh tuple within its group, delete it — state
/// returns to the seed every round, so the loop runs indefinitely.
class MixedWorkload {
 public:
  MixedWorkload(const Relation& seed_view, const AttrSet& x) : schema_(x) {
    template_ = seed_view.row(0);
    reject_ = seed_view.row(0);
    reject_.Set(schema_, static_cast<AttrId>(1),
                Value::Const(
                    reject_.At(schema_, static_cast<AttrId>(1)).index() ^
                    1u));
  }

  /// One round = 4 update attempts (3 accepted + 1 rejected).
  template <typename ApplyFn>
  void Round(uint64_t i, const ApplyFn& apply) {
    Tuple fresh = template_;
    fresh.Set(schema_, static_cast<AttrId>(0),
              Value::Const(0x00F00000u + static_cast<uint32_t>(i & 0xFFFF)));
    Tuple moved = fresh;
    moved.Set(schema_, static_cast<AttrId>(1),
              Value::Const(0x00E00000u + static_cast<uint32_t>(i & 0xFF)));
    apply(ViewUpdate::Insert(fresh));
    apply(ViewUpdate::Insert(reject_));
    apply(ViewUpdate::Replace(fresh, moved));
    apply(ViewUpdate::Delete(moved));
  }

 private:
  Schema schema_;
  Tuple template_;
  Tuple reject_;
};

/// The design the service replaces: one translator, one mutex, readers
/// and the writer all serialized through it. Readers wait out whatever
/// translatability check is in flight.
class SerializedFacade {
 public:
  explicit SerializedFacade(ViewTranslator vt) : vt_(std::move(vt)) {
    view_ = *vt_.ViewInstance();
  }

  // Setup-phase accessors; called before the worker threads exist, but the
  // lock is uncontended then, so take it and keep the analysis clean.
  Relation seed_view() {
    MutexLock lock(mu_);
    return view_;
  }
  AttrSet view_attrs() {
    MutexLock lock(mu_);
    return vt_.view();
  }

  bool Contains(const Tuple& t) {
    MutexLock lock(mu_);
    return view_.ContainsRow(t);
  }

  void Apply(const ViewUpdate& u) {
    MutexLock lock(mu_);
    Status st;
    switch (u.kind) {
      case UpdateKind::kInsert:
        st = vt_.Insert(u.t1);
        break;
      case UpdateKind::kDelete:
        st = vt_.Delete(u.t1);
        break;
      case UpdateKind::kReplace:
        st = vt_.Replace(u.t1, u.t2);
        break;
      case UpdateKind::kNumUpdateKinds:
        break;  // sentinel, not a real kind
    }
    if (st.ok()) view_ = *vt_.ViewInstance();
  }

 private:
  Mutex mu_;
  ViewTranslator vt_ RELVIEW_GUARDED_BY(mu_);
  Relation view_ RELVIEW_GUARDED_BY(mu_);
};

struct Point {
  double reads_per_sec = 0;
  double writes_per_sec = 0;
};

/// Runs `readers` reader threads (each: snapshot + point query) against a
/// saturating mixed writer for `seconds`.
Point RunSnapshotPoint(UpdateService* service, int readers, double seconds) {
  StartGate gate;
  std::atomic<bool> done{false};
  std::vector<uint64_t> read_counts(static_cast<size_t>(readers), 0);
  const ViewSnapshot seed = service->Snapshot();
  const int seed_rows = seed.view->size();
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      gate.Wait();
      uint64_t n = 0;
      uint64_t sink = 0;
      uint64_t lcg = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1);
      while (!done.load(std::memory_order_acquire)) {
        ViewSnapshot snap = service->Snapshot();
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const int idx = static_cast<int>((lcg >> 33) %
                                         static_cast<uint64_t>(seed_rows));
        sink += snap.view->ContainsRow(seed.view->row(idx)) ? 1 : 0;
        ++n;
      }
      read_counts[static_cast<size_t>(i)] = n + (sink & 1);
    });
  }
  std::atomic<uint64_t> writes{0};
  std::thread writer([&] {
    MixedWorkload w(*seed.view, service->view_attrs());
    gate.Wait();
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      w.Round(i++, [&](const ViewUpdate& u) { (void)service->Apply(u); });
      writes.fetch_add(4, std::memory_order_relaxed);
    }
  });

  Timer timer;
  gate.Open();
  while (timer.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  const double elapsed = timer.ElapsedSeconds();
  for (std::thread& t : threads) t.join();
  writer.join();

  Point p;
  uint64_t reads = 0;
  for (uint64_t n : read_counts) reads += n;
  p.reads_per_sec = static_cast<double>(reads) / elapsed;
  p.writes_per_sec = static_cast<double>(writes.load()) / elapsed;
  return p;
}

/// Same workload against the lock-coupled facade.
Point RunSerializedPoint(SerializedFacade* facade, int readers,
                         double seconds) {
  StartGate gate;
  std::atomic<bool> done{false};
  std::vector<uint64_t> read_counts(static_cast<size_t>(readers), 0);
  const Relation seed_view = facade->seed_view();
  const int seed_rows = seed_view.size();
  std::vector<std::thread> threads;
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      gate.Wait();
      uint64_t n = 0;
      uint64_t sink = 0;
      uint64_t lcg = 0x9E3779B97F4A7C15ull * static_cast<uint64_t>(i + 1);
      while (!done.load(std::memory_order_acquire)) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const int idx = static_cast<int>((lcg >> 33) %
                                         static_cast<uint64_t>(seed_rows));
        sink += facade->Contains(seed_view.row(idx)) ? 1 : 0;
        ++n;
      }
      read_counts[static_cast<size_t>(i)] = n + (sink & 1);
    });
  }
  std::atomic<uint64_t> writes{0};
  std::thread writer([&] {
    MixedWorkload w(seed_view, facade->view_attrs());
    gate.Wait();
    uint64_t i = 0;
    while (!done.load(std::memory_order_acquire)) {
      w.Round(i++, [&](const ViewUpdate& u) { facade->Apply(u); });
      writes.fetch_add(4, std::memory_order_relaxed);
    }
  });

  Timer timer;
  gate.Open();
  while (timer.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  const double elapsed = timer.ElapsedSeconds();
  for (std::thread& t : threads) t.join();
  writer.join();

  Point p;
  uint64_t reads = 0;
  for (uint64_t n : read_counts) reads += n;
  p.reads_per_sec = static_cast<double>(reads) / elapsed;
  p.writes_per_sec = static_cast<double>(writes.load()) / elapsed;
  return p;
}

double WriteOnlyThroughput(UpdateService* service, double seconds,
                           int batch_size) {
  const ViewSnapshot snap = service->Snapshot();
  const Schema vs(service->view_attrs());
  Timer timer;
  uint64_t updates = 0;
  uint64_t i = 0;
  while (timer.ElapsedSeconds() < seconds) {
    std::vector<ViewUpdate> batch;
    std::vector<ViewUpdate> inverse;
    for (int k = 0; k < batch_size; ++k) {
      Tuple fresh = snap.view->row(0);
      fresh.Set(vs, static_cast<AttrId>(0),
                Value::Const(0x00D00000u +
                             static_cast<uint32_t>((i + k) & 0xFFFFF)));
      batch.push_back(ViewUpdate::Insert(fresh));
      inverse.push_back(ViewUpdate::Delete(fresh));
    }
    BatchResult in = service->ApplyBatch(batch);
    BatchResult out = service->ApplyBatch(inverse);
    if (!in.ok() || !out.ok()) {
      std::fprintf(stderr, "bench batch rejected: %s\n",
                   (in.ok() ? out : in).status.ToString().c_str());
      std::exit(1);
    }
    updates += static_cast<uint64_t>(2 * batch_size);
    i += static_cast<uint64_t>(batch_size);
  }
  return static_cast<double>(updates) / timer.ElapsedSeconds();
}

}  // namespace
}  // namespace relview

int main(int argc, char** argv) {
  using namespace relview;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--", 0) != 0) positional.push_back(argv[i]);
  }
  const int rows = positional.size() > 0 ? std::atoi(positional[0]) : 512;
  const double secs = positional.size() > 1 ? std::atof(positional[1]) : 1.0;
  const std::string json_path = bench::FlagValue(argc, argv, "json");
  const unsigned cores = std::thread::hardware_concurrency();
  bench::JsonWriter json;
  json.Add("rows", rows).Add("cores", static_cast<int>(cores));

  std::printf("bench_service: |view| = %d rows, %.1fs per point, %u cores\n\n",
              rows, secs, cores);

  // --- 1. Read scaling under a live mixed writer ----------------------
  auto service = MakeService(rows, /*store_dir=*/"");
  std::printf("snapshot reads (read = snapshot + point query):\n");
  std::printf("%-8s %16s %16s %10s\n", "readers", "reads/s", "writes/s",
              "scaling");
  double base = 0;
  double scale4 = 0;
  for (int readers : {1, 2, 4, 8}) {
    Point p = RunSnapshotPoint(service.get(), readers, secs);
    if (readers == 1) base = p.reads_per_sec;
    const double scaling = base > 0 ? p.reads_per_sec / base : 0;
    if (readers == 4) scale4 = scaling;
    std::printf("%-8d %16.0f %16.0f %9.2fx\n", readers, p.reads_per_sec,
                p.writes_per_sec, scaling);
    json.Add("reads_per_sec_r" + std::to_string(readers), p.reads_per_sec);
  }
  json.Add("read_scaling_r4", scale4);

  // --- 2. Lock-coupled baseline (informational) -----------------------
  const Point snap4 = RunSnapshotPoint(service.get(), 4, secs);
  SerializedFacade facade(MakeBoundTranslator(rows));
  const Point ser4 = RunSerializedPoint(&facade, 4, secs);
  std::printf("\nlock-coupled baseline (4 readers + saturating writer):\n");
  std::printf("%-28s %16s %16s\n", "", "reads/s", "writes/s");
  std::printf("%-28s %16.0f %16.0f\n", "mutex-serialized facade",
              ser4.reads_per_sec, ser4.writes_per_sec);
  std::printf("%-28s %16.0f %16.0f\n", "snapshot service",
              snap4.reads_per_sec, snap4.writes_per_sec);

  // The architectural requirement: readers must not serialize behind the
  // writer's translation checks. With >= 4 cores that must show up as
  // >= 2x aggregate scaling at 4 readers. With fewer cores no read path,
  // however good, can beat the fair-share time-slicing cap, so the gate
  // is how close the measured scaling sits to that cap.
  const double cap4 = (4.0 / 5.0) / (1.0 / 2.0);  // 1.60x on one core
  std::printf("\nread scaling at 4 readers: %.2fx", scale4);
  bool pass;
  if (cores >= 4) {
    pass = scale4 >= 2.0;
    std::printf(" (required: >= 2x)\n");
  } else {
    pass = scale4 >= 0.9 * cap4;
    std::printf(
        " — %u core(s): 4 CPU-bound readers time-slice, fair-share cap "
        "is %.2fx; measured/cap = %.2f (>= 0.90 required; the 2x gate "
        "needs >= 4 cores)\n",
        cores, cap4, scale4 / cap4);
  }
  std::printf("%s\n",
              pass ? "PASS: readers scale to the hardware limit without "
                     "serializing behind the writer"
                   : "FAIL: reader scaling below the hardware limit");

  // --- 3. Write-path throughput ---------------------------------------
  std::printf("\n%-28s %16s\n", "write path", "updates/s");
  {
    auto s = MakeService(rows, "");
    const double ups = WriteOnlyThroughput(s.get(), secs, 1);
    std::printf("%-28s %16.0f\n", "single updates (batch=1)", ups);
    json.Add("writes_per_sec_batch1", ups);
  }
  {
    auto s = MakeService(rows, "");
    const double ups = WriteOnlyThroughput(s.get(), secs, 16);
    std::printf("%-28s %16.0f\n", "batched (batch=16)", ups);
    json.Add("writes_per_sec_batch16", ups);
  }
  {
    const std::string store_dir = "/tmp/relview_bench_service.store";
    std::filesystem::remove_all(store_dir);
    auto s = MakeService(rows, store_dir);
    const double ups = WriteOnlyThroughput(s.get(), secs, 16);
    std::printf("%-28s %16.0f\n", "journaled+fsync (batch=16)", ups);
    json.Add("writes_per_sec_journaled16", ups);
    s.reset();
    std::filesystem::remove_all(store_dir);
  }

  std::printf("\nmixed-workload metrics: %s\n",
              service->metrics().ToJson().c_str());
  json.Add("pass", pass);
  json.Raw("mixed_workload_metrics", service->metrics().ToJson());
  if (!json_path.empty()) {
    Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "json: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
