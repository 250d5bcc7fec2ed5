// bench_recovery: recovery-time vs journal-length curve (DESIGN.md §10).
//
// For each journal length n the harness builds two on-disk stores fed the
// identical accepted-update stream — one with no checkpoint (recovery =
// full replay of n records) and one checkpointed at 90% of the stream
// (recovery = load checkpoint + replay the 10% suffix) — then measures a
// cold DurableStore::Open against each. The claim under test is the
// tentpole's acceptance bar: checkpointed recovery is >= 5x faster than
// full replay once the journal is long (100k records), because replay
// cost is linear in n while checkpoint load is linear in |database|,
// which the workload holds bounded.
//
// Usage:
//   bench_recovery [--smoke] [--json=FILE] [--gate] [--max=N]
//     --smoke   small n's only (CI build-and-test job)
//     --json    write the result document to FILE
//     --gate    exit 1 when speedup at the largest n is < 5x
//     --max     override the largest n
//
// Custom main (not benchmark_main): each measurement is one cold start
// against a directory prepared ahead of time, so Google Benchmark's
// auto-iteration would re-measure a warmed page cache instead of the
// recovery path.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "service/recovery.h"
#include "util/small_util.h"
#include "view/translator.h"

namespace relview {
namespace bench {
namespace {

Tuple Row2(uint32_t a, uint32_t b) {
  return Tuple(std::vector<Value>{Value::Const(a), Value::Const(b)});
}

/// Emp-Dept-Mgr translator over a 10-department seed; every generated
/// update below is accepted, so n updates = n journal records.
ViewTranslator MakeTranslator() {
  Universe u = Universe::Parse("Emp Dept Mgr").value();
  DependencySet sigma;
  sigma.fds = *FDSet::Parse(u, "Emp -> Dept; Dept -> Mgr");
  auto vt = ViewTranslator::Create(u, sigma, u.SetOf("Emp Dept"),
                                   u.SetOf("Dept Mgr"));
  if (!vt.ok()) {
    std::fprintf(stderr, "translator: %s\n", vt.status().ToString().c_str());
    std::exit(1);
  }
  Relation db(vt->universe().All());
  for (uint32_t d = 0; d < 10; ++d) {
    db.AddRow(Tuple(std::vector<Value>{Value::Const(d), Value::Const(100 + d),
                                       Value::Const(200 + d)}));
  }
  if (!vt->Bind(std::move(db)).ok()) std::exit(1);
  return std::move(*vt);
}

/// The accepted-update stream: round-robin inserts of fresh employees,
/// with a trailing-window delete once the database passes `cap` rows, so
/// |database| stays bounded (~cap) however long the journal grows. Every
/// update is translatable: inserts join an existing department, deletes
/// always leave an older sibling behind.
class Workload {
 public:
  explicit Workload(uint64_t cap) : cap_(cap) {}

  ViewUpdate Next() {
    if (live_ > cap_ && (step_++ % 2) == 0) {
      const uint32_t emp = oldest_++;
      --live_;
      return ViewUpdate::Delete(Row2(emp, 100 + emp % 10));
    }
    const uint32_t emp = next_++;
    ++live_;
    return ViewUpdate::Insert(Row2(emp, 100 + emp % 10));
  }

 private:
  uint64_t cap_;
  uint64_t live_ = 10;  // the seed rows
  uint64_t step_ = 0;
  uint32_t next_ = 1000;
  uint32_t oldest_ = 1000;
};

/// Builds a store under `dir` holding exactly `n` accepted records,
/// applying and journaling in batches of `batch` (one fsync per batch —
/// how a group-committing service writes). A checkpoint is written when
/// the sequence number crosses `checkpoint_at` (0 = never).
void BuildStore(const std::string& dir, uint64_t n, uint64_t checkpoint_at,
                uint64_t batch) {
  std::filesystem::remove_all(dir);
  ViewTranslator vt = MakeTranslator();
  StoreOptions opts;
  opts.dir = dir;
  opts.rotate_records = 4096;
  auto store = DurableStore::Open(opts, &vt);
  if (!store.ok()) {
    std::fprintf(stderr, "build: %s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  Workload gen(2000);
  std::vector<ViewUpdate> pending;
  pending.reserve(batch);
  auto flush = [&] {
    if (pending.empty()) return;
    Status st = (*store)->AppendUnsynced(pending);
    if (st.ok()) st = (*store)->Sync();
    if (!st.ok()) {
      std::fprintf(stderr, "append: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    pending.clear();
  };
  for (uint64_t i = 0; i < n; ++i) {
    ViewUpdate u = gen.Next();
    Status st = u.kind == UpdateKind::kInsert ? vt.Insert(u.t1)
                                              : vt.Delete(u.t1);
    if (!st.ok()) {
      std::fprintf(stderr, "workload update %" PRIu64 " rejected: %s\n", i,
                   st.ToString().c_str());
      std::exit(1);
    }
    pending.push_back(std::move(u));
    if (pending.size() >= batch) flush();
    if (checkpoint_at != 0 && i + 1 == checkpoint_at) {
      flush();
      auto seq = (*store)->WriteCheckpoint(vt.database());
      if (!seq.ok()) {
        std::fprintf(stderr, "checkpoint: %s\n",
                     seq.status().ToString().c_str());
        std::exit(1);
      }
    }
  }
  flush();
}

/// One cold recovery against `dir`; returns milliseconds and reports what
/// the recovery path did through *info.
double MeasureRecovery(const std::string& dir, RecoveryInfo* info) {
  ViewTranslator vt = MakeTranslator();
  StoreOptions opts;
  opts.dir = dir;
  opts.rotate_records = 4096;
  Timer timer;
  auto store = DurableStore::Open(opts, &vt);
  const double ms = static_cast<double>(timer.ElapsedNanos()) / 1e6;
  if (!store.ok()) {
    std::fprintf(stderr, "recovery: %s\n", store.status().ToString().c_str());
    std::exit(1);
  }
  *info = (*store)->recovery();
  return ms;
}

struct Point {
  uint64_t n = 0;
  double full_ms = 0;
  double ckpt_ms = 0;
  uint64_t ckpt_replayed = 0;
  double speedup = 0;
};

int Main(int argc, char** argv) {
  const bool smoke = HasFlag(argc, argv, "smoke");
  const bool gate = HasFlag(argc, argv, "gate");
  const std::string json_path = FlagValue(argc, argv, "json");
  std::vector<uint64_t> curve =
      smoke ? std::vector<uint64_t>{200, 1000}
            : std::vector<uint64_t>{1000, 10000, 100000};
  const std::string max_flag = FlagValue(argc, argv, "max");
  if (!max_flag.empty()) {
    curve.back() = static_cast<uint64_t>(std::atoll(max_flag.c_str()));
  }

  const std::string base =
      std::filesystem::temp_directory_path().string() + "/relview_bench_rec";
  std::vector<Point> points;
  std::printf("%10s %14s %14s %10s %10s\n", "n", "full_replay_ms",
              "checkpoint_ms", "replayed", "speedup");
  for (uint64_t n : curve) {
    Point p;
    p.n = n;
    // One store per mode, identical streams; the checkpointed store's
    // checkpoint lands at 90% so its recovery still replays a suffix.
    BuildStore(base + "_full", n, /*checkpoint_at=*/0, /*batch=*/1000);
    BuildStore(base + "_ckpt", n, /*checkpoint_at=*/n - n / 10,
               /*batch=*/1000);
    RecoveryInfo full_info, ckpt_info;
    p.full_ms = MeasureRecovery(base + "_full", &full_info);
    p.ckpt_ms = MeasureRecovery(base + "_ckpt", &ckpt_info);
    if (full_info.replayed != n || ckpt_info.replayed != n / 10 ||
        !ckpt_info.used_checkpoint) {
      std::fprintf(stderr,
                   "unexpected recovery shape at n=%" PRIu64
                   " (full replayed %" PRIu64 ", ckpt replayed %" PRIu64
                   ")\n",
                   n, full_info.replayed, ckpt_info.replayed);
      return 1;
    }
    p.ckpt_replayed = ckpt_info.replayed;
    p.speedup = p.ckpt_ms > 0 ? p.full_ms / p.ckpt_ms : 0;
    points.push_back(p);
    std::printf("%10" PRIu64 " %14.2f %14.2f %10" PRIu64 " %9.2fx\n", p.n,
                p.full_ms, p.ckpt_ms, p.ckpt_replayed, p.speedup);
  }
  std::filesystem::remove_all(base + "_full");
  std::filesystem::remove_all(base + "_ckpt");

  if (!json_path.empty()) {
    std::string arr = "[";
    for (size_t i = 0; i < points.size(); ++i) {
      if (i) arr += ",";
      arr += JsonWriter()
                 .Add("n", points[i].n)
                 .Add("full_replay_ms", points[i].full_ms)
                 .Add("checkpoint_ms", points[i].ckpt_ms)
                 .Add("ckpt_replayed", points[i].ckpt_replayed)
                 .Add("speedup", points[i].speedup)
                 .ToString();
    }
    arr += "]";
    JsonWriter doc;
    doc.Add("bench", std::string("recovery"))
        .Add("smoke", smoke)
        .Add("max_n", points.back().n)
        .Add("speedup_at_max", points.back().speedup)
        .Raw("points", arr);
    Status st = doc.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (gate && points.back().speedup < 5.0) {
    std::fprintf(stderr,
                 "GATE FAILED: checkpointed recovery speedup %.2fx < 5x at "
                 "n=%" PRIu64 "\n",
                 points.back().speedup, points.back().n);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace relview

int main(int argc, char** argv) {
  return relview::bench::Main(argc, argv);
}
