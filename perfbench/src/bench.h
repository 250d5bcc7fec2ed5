// The benchmark's workloads and per-layer probes.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "service/update_service.h"
#include "stream.h"
#include "util/rng.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for stores; the run empties it when done.
  std::string work_dir;
};

/// Everything one run measured.
struct Report {
  MetricMap end_to_end;  ///< Printed on the result line with --trace 0.
  MetricMap per_layer;   ///< Printed on the result line with --trace 1.
  MetricMap detail;      ///< Sample counts and extra figures, printed above.
  Outcome outcome;
};

inline void Put(MetricMap* m, const std::string& name, double value,
                const std::string& unit) {
  (*m)[name] = Metric{value, unit};
}

/// Puts `name.p50` / `name.p99` (and the sample count in `detail`).
void PutPercentiles(Report* rep, MetricMap* m, const std::string& name,
                    const Samples& s, const std::string& unit, bool p99);

// --- workloads (workloads.cc) -------------------------------------------
void RunTenant16k(const RunOptions& opt, Report* rep);
void RunRestart16k(const RunOptions& opt, Report* rep);

// --- service helpers (workloads.cc) --------------------------------------
/// Opens an UpdateService over the seeded instance with a DurableStore in
/// `dir` and production defaults otherwise. With `warm`, the engine is
/// built before the service takes the translator, so set-up covers it.
relview::Result<std::unique_ptr<relview::UpdateService>> OpenService(
    const ChainSchema& schema, const Shape& shape, const std::string& dir,
    uint64_t checkpoint_every, bool warm);

/// One read: Snapshot() plus 16 point lookups on its view.
struct ReadSample {
  int64_t snapshot_nanos = 0;
  int64_t lookup_nanos = 0;
  uint64_t version = 0;
  int view_rows = 0;
  int hits = 0;  ///< Lookups that found their row.
};
ReadSample ReadOnce(const relview::UpdateService& svc, relview::Rng* rng,
                    const Shape& shape);

constexpr double kNanosPerMs = 1e6;
constexpr double kNanosPerUs = 1e3;

/// Batch outcomes of one or more writers, judged against the predictions.
struct WriteStats {
  Samples commit_ms;  ///< accepted: submit -> ack (durable and published)
  Samples reject_ms;  ///< rejected: submit -> verdict
  /// Accepted batches: BatchTimings stages and the caller's wall time
  /// outside them (save copy, snapshot build, publish, auto-checkpoint,
  /// writer-lock wait).
  Samples stage_us, append_us, commit_wait_us, residual_us;
  uint64_t updates = 0;  ///< accepted view updates

  void Record(const PlannedBatch& planned, const relview::BatchResult& r,
              int64_t wall_nanos, Outcome* outcome);
  void Merge(const WriteStats& o);
};

/// Reads: the whole read, and its Snapshot() and lookup parts.
struct ReadStats {
  Samples read_us, snapshot_us, lookup_us;

  void Record(const ReadSample& s);
};

/// Reopens the store in `dir` (UpdateService::Create on it, up to the
/// first served Snapshot), adds the time to `recovery_s`, checks the
/// recovered state and replay count, and returns the service (null when
/// it could not open; the failure is counted).
std::unique_ptr<relview::UpdateService> TimedRecovery(
    const ChainSchema& schema, const Shape& shape, const std::string& dir,
    uint64_t checkpoint_every, const relview::Relation& expected,
    uint64_t expected_replayed, Samples* recovery_s, Outcome* outcome);

/// Adds the service-layer figures of an in-process write path.
void PutServiceLayers(Report* rep, const WriteStats& w, const ReadStats& r,
                      uint64_t fsyncs, uint64_t committed,
                      uint64_t rolled_back);

// --- per-layer probes (probes.cc) -----------------------------------------
/// Adds every per-layer metric that the workload's own run did not already
/// measure, by probing the layers at the workload's |R| with its stream,
/// plus the |R| sweep slopes.
void AddLayerProbes(const RunOptions& opt, const Shape& shape, int clients,
                    Report* rep);

/// Total bytes of the journal segment files in a store directory.
uint64_t JournalBytes(const std::string& dir);

// --- generator self-test (selftest.cc) --------------------------------------
/// Returns 0 when every check passes.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
