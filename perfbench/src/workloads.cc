// The benchmark's workloads. Each drives the real serving stack with the seeded
// stream of stream.h, judges every outcome against its prediction, checks
// the end state, restarts from the store and checks the recovered state.

#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "net/workload.h"

namespace perfbench {

namespace fs = std::filesystem;
using relview::BatchResult;
using relview::Result;
using relview::UpdateService;
using relview::ViewSnapshot;

double PeakRssMiB() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PutPercentiles(Report* rep, MetricMap* m, const std::string& name,
                    const Samples& s, const std::string& unit, bool p99) {
  Put(m, name + ".p50", s.Median(), unit);
  if (p99) Put(m, name + ".p99", s.Quantile(0.99), unit);
  Put(&rep->detail, name + ".samples", static_cast<double>(s.size()),
      "count");
}

Result<std::unique_ptr<UpdateService>> OpenService(const ChainSchema& schema,
                                                   const Shape& shape,
                                                   const std::string& dir,
                                                   uint64_t checkpoint_every,
                                                   bool warm) {
  RELVIEW_ASSIGN_OR_RETURN(relview::ViewTranslator vt,
                           MakeSeededTranslator(schema, shape));
  if (warm) {
    // Checking an insert of an unused employee builds the engine; moving
    // the translator into the service carries the live engine along.
    RELVIEW_RETURN_IF_ERROR(vt.CanInsert(ProbeTuple(shape)).status());
  }
  relview::ServiceOptions options;
  options.store.dir = dir;
  options.store.checkpoint_every = checkpoint_every;
  return UpdateService::Create(std::move(vt), options);
}

ReadSample ReadOnce(const UpdateService& svc, relview::Rng* rng,
                    const Shape& shape) {
  ReadSample out;
  const int64_t t0 = NowNanos();
  const ViewSnapshot snap = svc.Snapshot();
  const int64_t t1 = NowNanos();
  int hits = 0;
  for (int i = 0; i < 16; ++i) {
    const uint32_t emp = 1 + static_cast<uint32_t>(rng->Below(shape.emps));
    hits += snap.view->ContainsRow(relview::Tuple(
                {relview::Value::Const(emp),
                 relview::Value::Const(
                     relview::net::DeptOfEmp(emp, shape.depts))}))
                ? 1
                : 0;
  }
  out.lookup_nanos = NowNanos() - t1;
  out.snapshot_nanos = t1 - t0;
  out.hits = hits;
  out.version = snap.version;
  out.view_rows = snap.view->size();
  return out;
}

void WriteStats::Record(const PlannedBatch& planned, const BatchResult& r,
                        int64_t wall_nanos, Outcome* outcome) {
  const std::string why = Judge(planned, r);
  outcome->Check(why.empty(), why);
  if (!r.ok()) {
    reject_ms.Add(static_cast<double>(wall_nanos) / kNanosPerMs);
    return;
  }
  updates += planned.updates.size();
  commit_ms.Add(static_cast<double>(wall_nanos) / kNanosPerMs);
  const relview::BatchTimings& t = r.timings;
  stage_us.Add(static_cast<double>(t.stage_nanos) / kNanosPerUs);
  append_us.Add(static_cast<double>(t.append_nanos) / kNanosPerUs);
  commit_wait_us.Add(static_cast<double>(t.commit_wait_nanos) / kNanosPerUs);
  residual_us.Add(static_cast<double>(wall_nanos - t.stage_nanos -
                                      t.append_nanos - t.commit_wait_nanos) /
                  kNanosPerUs);
}

void WriteStats::Merge(const WriteStats& o) {
  commit_ms.Append(o.commit_ms);
  reject_ms.Append(o.reject_ms);
  stage_us.Append(o.stage_us);
  append_us.Append(o.append_us);
  commit_wait_us.Append(o.commit_wait_us);
  residual_us.Append(o.residual_us);
  updates += o.updates;
}

void ReadStats::Record(const ReadSample& s) {
  read_us.Add(static_cast<double>(s.snapshot_nanos + s.lookup_nanos) /
              kNanosPerUs);
  snapshot_us.Add(static_cast<double>(s.snapshot_nanos) / kNanosPerUs);
  lookup_us.Add(static_cast<double>(s.lookup_nanos) / kNanosPerUs);
}

/// Samples per window of a reported p99: 10 lie beyond each window's p99.
constexpr size_t kTailWindow = 1000;

/// The end-to-end figures every workload reports.
static void PutEndToEnd(Report* rep, const Samples& setup_s, double updates_per_s,
                 const WriteStats& w, const ReadStats& r,
                 const Samples& recovery_s) {
  MetricMap* e = &rep->end_to_end;
  // The 10th percentile of the set-ups, not their median: while other
  // work loads the host, most set-ups of a run slow down together (their
  // median moved from 0.023 s to 0.044 s between runs of one seed range)
  // while the fastest tenth moved by about a fifth.
  Put(e, "setup_s", setup_s.Quantile(0.1), "s");
  Put(e, "updates_per_s", updates_per_s, "1/s");
  Put(e, "batch_p50_ms", w.commit_ms.Median(), "ms");
  Put(e, "batch_p99_ms", w.commit_ms.WindowedQuantile(0.99, kTailWindow),
      "ms");
  Put(e, "reject_p50_ms", w.reject_ms.Median(), "ms");
  Put(e, "read_p50_us", r.read_us.Median(), "us");
  Put(e, "read_p99_us", r.read_us.WindowedQuantile(0.99, kTailWindow), "us");
  Put(e, "recovery_s", recovery_s.Median(), "s");
  Put(e, "peak_rss_mb", PeakRssMiB(), "MiB");
  MetricMap* d = &rep->detail;
  Put(d, "setup_s.samples", static_cast<double>(setup_s.size()), "count");
  Put(d, "setup_s.p50", setup_s.Median(), "s");
  Put(d, "batch.samples", static_cast<double>(w.commit_ms.size()), "count");
  Put(d, "batch_p99.beyond", static_cast<double>(w.commit_ms.Beyond(0.99)),
      "count");
  Put(d, "reject.samples", static_cast<double>(w.reject_ms.size()), "count");
  Put(d, "read.samples", static_cast<double>(r.read_us.size()), "count");
  Put(d, "read_p99.beyond", static_cast<double>(r.read_us.Beyond(0.99)),
      "count");
  Put(d, "recovery_s.samples", static_cast<double>(recovery_s.size()),
      "count");
  if (w.commit_ms.Beyond(0.99) < 10 || r.read_us.Beyond(0.99) < 10) {
    std::fprintf(stderr,
                 "perfbench: warning: fewer than 10 samples beyond a p99; "
                 "run longer for a supported tail figure\n");
  }
}

void PutServiceLayers(Report* rep, const WriteStats& w, const ReadStats& r,
                      uint64_t fsyncs, uint64_t committed,
                      uint64_t rolled_back) {
  MetricMap* l = &rep->per_layer;
  PutPercentiles(rep, l, "service.stage_us", w.stage_us, "us", true);
  PutPercentiles(rep, l, "service.append_us", w.append_us, "us", false);
  PutPercentiles(rep, &rep->detail, "service.commit_wait_us",
                 w.commit_wait_us, "us", true);
  PutPercentiles(rep, l, "service.residual_us", w.residual_us, "us", true);
  PutPercentiles(rep, l, "service.snapshot_us", r.snapshot_us, "us", true);
  PutPercentiles(rep, l, "relational.lookup_us", r.lookup_us, "us", true);
  Put(l, "service.fsyncs_per_batch",
      committed == 0 ? 0
                     : static_cast<double>(fsyncs) /
                           static_cast<double>(committed),
      "count");
  const uint64_t batches = committed + rolled_back;
  Put(l, "service.rollbacks_per_1k_batches",
      batches == 0 ? 0
                   : 1000.0 * static_cast<double>(rolled_back) /
                         static_cast<double>(batches),
      "count");
}

/// Whether a repeated measurement has enough samples: at least 5, then
/// until `seconds` are spent on it or 201 are taken. Spreading the samples
/// over seconds keeps one stall of the host out of their median.
static bool EnoughRepeats(const Samples& s, double seconds) {
  return s.size() >= 201 || (s.size() >= 5 && s.Sum() >= seconds);
}

/// Sets up repeatedly and records each time: `clear`, untimed, tears down
/// what the previous `make` built; `make` (false on failure) builds it
/// again and keeps it.
template <typename ClearFn, typename MakeFn>
static bool TimedSetup(Samples* setup_s, Outcome* outcome, ClearFn clear,
                       MakeFn make) {
  while (!EnoughRepeats(*setup_s, 4.0)) {
    clear();
    const int64_t t0 = NowNanos();
    std::string error;
    if (!make(&error)) {
      outcome->Fail("set-up: " + error);
      return false;
    }
    setup_s->Add(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  return true;
}

std::unique_ptr<UpdateService> TimedRecovery(
    const ChainSchema& schema, const Shape& shape, const std::string& dir,
    uint64_t checkpoint_every, const relview::Relation& expected,
    uint64_t expected_replayed, Samples* recovery_s, Outcome* outcome) {
  auto vt = MakeSeededTranslator(schema, shape);
  if (!vt.ok()) {
    outcome->Fail("recovery seed: " + vt.status().ToString());
    return nullptr;
  }
  relview::ServiceOptions options;
  options.store.dir = dir;
  options.store.checkpoint_every = checkpoint_every;
  // On a fresh thread, as in a fresh process: Snapshot() caches per thread,
  // and the calling thread's cache may still hold an earlier service's
  // snapshot, whose release would otherwise fall inside the timing.
  Result<std::unique_ptr<UpdateService>> svc =
      relview::Status::Internal("not started");
  ViewSnapshot snap;
  std::thread([&] {
    const int64_t t0 = NowNanos();
    svc = UpdateService::Create(std::move(*vt), options);
    if (!svc.ok()) return;
    snap = (*svc)->Snapshot();
    recovery_s->Add(static_cast<double>(NowNanos() - t0) / 1e9);
  }).join();
  if (!svc.ok()) {
    outcome->Fail("recovery: " + svc.status().ToString());
    return nullptr;
  }
  outcome->Check((*svc)->replayed_updates() == expected_replayed,
                 "recovery replayed " +
                     std::to_string((*svc)->replayed_updates()) +
                     " records, expected " +
                     std::to_string(expected_replayed));
  outcome->Check(snap.database->SameAs(expected),
                 "recovered state differs from the state at shutdown");
  return std::move(*svc);
}

static void CheckEnd(const relview::Relation& db, const Shape& shape,
              const std::vector<Client>& clients, const ChainSchema& schema,
              Outcome* outcome) {
  std::vector<const Client*> ptrs;
  for (const Client& c : clients) ptrs.push_back(&c);
  const std::string why = CheckEndState(db, shape, ptrs, schema);
  outcome->Check(why.empty(), "end state: " + why);
}

/// A closed-loop reader until `stop`, with a 1 ms think time that keeps it
/// from spinning a whole core beside the writers. Checks that versions
/// never go backwards and that every view holds the seed's row count within
/// `row_slack`: a 4-update batch keeps |R| level, a single update moves it
/// by at most one row.
static void ReadUntil(const UpdateService& svc, const Shape& shape,
                      uint64_t seed, int row_slack,
                      const std::atomic<bool>& stop, ReadStats* rs,
                      Outcome* outcome) {
  relview::Rng rng(seed ^ 0x5EEDULL);
  uint64_t last_version = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const ReadSample s = ReadOnce(svc, &rng, shape);
    outcome->Check(
        s.version >= last_version &&
            std::abs(s.view_rows - static_cast<int>(shape.emps)) <= row_slack,
        "read saw version " + std::to_string(s.version) + " with " +
            std::to_string(s.view_rows) + " view rows");
    last_version = s.version;
    rs->Record(s);
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
  }
}

// --- tenant-16k ---------------------------------------------------------
//
// One tenant of 16,384 employees in 1,024 departments; 2 closed-loop
// writers (4-update batches) and 1 closed-loop reader for the measured
// time, then a stop with a fixed replay debt and repeated restarts.
void RunTenant16k(const RunOptions& opt, Report* rep) {
  const ChainSchema schema = MakeChainSchema();
  const Shape shape;  // 16384 x 1024, batches of 4, 1 in 8 rejected
  constexpr int kWriters = 2;
  constexpr uint64_t kCheckpointEvery = 1024;
  constexpr auto kThinkTime = std::chrono::microseconds(200);
  constexpr int kDebtBatches = 16;
  const std::string dir = opt.work_dir + "/tenant";

  Samples setup_s;
  std::unique_ptr<UpdateService> svc;
  auto clear = [&] {
    svc.reset();
    fs::remove_all(dir);
  };
  if (!TimedSetup(&setup_s, &rep->outcome, clear, [&](std::string* error) {
        auto s = OpenService(schema, shape, dir, kCheckpointEvery, true);
        if (!s.ok()) {
          *error = s.status().ToString();
          return false;
        }
        svc = std::move(*s);
        return true;
      })) {
    return;
  }

  std::vector<Client> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.emplace_back(shape, w, kWriters, opt.seed);
  }
  const uint64_t fsyncs0 = svc->store()->fsyncs();
  std::atomic<bool> stop{false};
  std::vector<WriteStats> ws(kWriters);
  ReadStats rs;
  std::vector<std::thread> threads;
  const int64_t start = NowNanos();
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        const PlannedBatch b = clients[static_cast<size_t>(w)].Next();
        const int64_t t0 = NowNanos();
        const BatchResult r = svc->ApplyBatch(b.updates);
        ws[static_cast<size_t>(w)].Record(b, r, NowNanos() - t0,
                                          &rep->outcome);
        // A client's think time between an ack and its next batch. Without
        // it the writer that just released the writer mutex takes it back
        // before the waiting one wakes, and the other writer starves for
        // whole seconds at random.
        std::this_thread::sleep_for(kThinkTime);
      }
    });
  }
  threads.emplace_back([&] {
    ReadUntil(*svc, shape, opt.seed, 0, stop, &rs, &rep->outcome);
  });
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  stop.store(true);
  for (std::thread& t : threads) t.join();
  const double elapsed = static_cast<double>(NowNanos() - start) / 1e9;

  WriteStats all;
  for (const WriteStats& w : ws) all.Merge(w);
  PutServiceLayers(rep, all, rs, svc->store()->fsyncs() - fsyncs0,
                   svc->metrics().batches_committed(),
                   svc->metrics().batches_rolled_back());

  // Stop as a crash with a fixed replay debt: checkpoint, journal
  // kDebtBatches more of writer 0's batches, stop without a checkpoint.
  // Every restart then loads the checkpoint and replays the same records.
  rep->outcome.Check(svc->Checkpoint().ok(), "checkpoint failed");
  WriteStats debt;
  for (int i = 0; i < kDebtBatches; ++i) {
    const PlannedBatch b = clients[0].Next();
    debt.Record(b, svc->ApplyBatch(b.updates), 0, &rep->outcome);
  }
  const ViewSnapshot last = svc->Snapshot();
  CheckEnd(*last.database, shape, clients, schema, &rep->outcome);
  svc.reset();
  Samples recovery_s;
  while (!EnoughRepeats(recovery_s, 16.0)) {
    if (TimedRecovery(schema, shape, dir, kCheckpointEvery, *last.database,
                      debt.updates, &recovery_s, &rep->outcome) == nullptr) {
      break;  // failed; already counted
    }
  }
  PutEndToEnd(rep, setup_s, static_cast<double>(all.updates) / elapsed, all,
              rs, recovery_s);
  if (opt.trace) AddLayerProbes(opt, shape, kWriters, rep);
}

// --- restart-16k --------------------------------------------------------
//
// A store holding a checkpoint of the 16,384-row instance plus 1,024
// journaled single-update records after it. Set-up checkpoints the seed;
// one writer then journals the records once, beside a closed-loop reader
// as on tenant-16k, and that write phase gives the workload's write and
// read figures. The measured time goes to restarts from fresh copies of
// the journaled store, each replaying the 1,024 records, paired with
// restarts of a checkpoint-only copy.
void RunRestart16k(const RunOptions& opt, Report* rep) {
  const ChainSchema schema = MakeChainSchema();
  Shape shape;
  shape.batch_size = 1;
  shape.conflict_every = 10;
  constexpr uint64_t kJournaled = 1024;
  constexpr uint64_t kManualCheckpoints = 0;
  constexpr size_t kMinRestarts = 3;
  const std::string base = opt.work_dir + "/restart-base";
  const std::string checkpoint_only = opt.work_dir + "/restart-checkpoint";
  const std::string dir = opt.work_dir + "/restart";

  Samples setup_s;
  std::unique_ptr<UpdateService> made;
  auto clear = [&] {
    made.reset();
    fs::remove_all(base);
  };
  if (!TimedSetup(&setup_s, &rep->outcome, clear, [&](std::string* error) {
        auto s = OpenService(schema, shape, base, kManualCheckpoints, true);
        if (!s.ok()) {
          *error = s.status().ToString();
          return false;
        }
        made = std::move(*s);
        const Result<uint64_t> ckpt = made->Checkpoint();
        if (!ckpt.ok()) {
          *error = ckpt.status().ToString();
          return false;
        }
        return true;
      })) {
    return;
  }
  made.reset();  // close the base store before copying it

  // Keep a checkpoint-only copy, then reopen the base and journal 1,024
  // accepted updates on it while the reader reads.
  fs::copy(base, checkpoint_only, fs::copy_options::recursive);
  Samples recover_checkpoint_s;
  std::unique_ptr<UpdateService> svc =
      TimedRecovery(schema, shape, base, kManualCheckpoints,
                    SeedDatabase(shape), 0, &recover_checkpoint_s,
                    &rep->outcome);
  if (svc == nullptr) return;
  std::vector<Client> clients;
  clients.emplace_back(shape, 0, 1, opt.seed);
  WriteStats ws;
  ReadStats rs;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    ReadUntil(*svc, shape, opt.seed, 1, stop, &rs, &rep->outcome);
  });
  const uint64_t fsyncs0 = svc->store()->fsyncs();
  const int64_t write_start = NowNanos();
  bool lost = false;  // the model no longer predicts; already counted
  while (ws.updates < kJournaled && !lost) {
    const PlannedBatch b = clients[0].Next();
    const int64_t t0 = NowNanos();
    const BatchResult r = svc->ApplyBatch(b.updates);
    ws.Record(b, r, NowNanos() - t0, &rep->outcome);
    lost = b.reject_at < 0 && !r.ok();
  }
  const double write_seconds =
      static_cast<double>(NowNanos() - write_start) / 1e9;
  stop.store(true);
  reader.join();
  if (lost) return;
  const uint64_t fsyncs = svc->store()->fsyncs() - fsyncs0;
  const uint64_t committed = svc->metrics().batches_committed();
  const uint64_t rolled_back = svc->metrics().batches_rolled_back();
  // Shut down without a checkpoint: the journal holds 1,024 records.
  const ViewSnapshot last = svc->Snapshot();
  CheckEnd(*last.database, shape, clients, schema, &rep->outcome);
  svc.reset();

  // The measured time: restarts of fresh copies, each a checkpoint-only
  // one and then the journaled one, until --seconds are spent (at least
  // kMinRestarts) or the next pair would overrun them.
  Samples recovery_s;
  const int64_t restarts_start = NowNanos();
  auto restart = [&](const std::string& from, const relview::Relation& expected,
                     uint64_t replayed, Samples* samples) {
    fs::remove_all(dir);
    fs::copy(from, dir, fs::copy_options::recursive);
    return TimedRecovery(schema, shape, dir, kManualCheckpoints, expected,
                         replayed, samples, &rep->outcome) != nullptr;
  };
  const relview::Relation seed_db = SeedDatabase(shape);
  for (;;) {
    if (recovery_s.size() >= kMinRestarts) {
      const double spent =
          static_cast<double>(NowNanos() - restarts_start) / 1e9;
      const double per_pair = spent / static_cast<double>(recovery_s.size());
      if (spent + per_pair > opt.seconds) break;
    }
    if (!restart(checkpoint_only, seed_db, 0, &recover_checkpoint_s) ||
        !restart(base, *last.database, ws.updates, &recovery_s)) {
      return;  // failed; already counted
    }
  }
  fs::remove_all(dir);

  PutServiceLayers(rep, ws, rs, fsyncs, committed, rolled_back);
  Put(&rep->per_layer, "service.recover_checkpoint_s",
      recover_checkpoint_s.Median(), "s");
  Put(&rep->per_layer, "service.replay_us_per_update",
      (recovery_s.Median() - recover_checkpoint_s.Median()) * 1e6 /
          static_cast<double>(ws.updates),
      "us");
  PutEndToEnd(rep, setup_s, static_cast<double>(ws.updates) / write_seconds,
              ws, rs, recovery_s);
  if (opt.trace) AddLayerProbes(opt, shape, 1, rep);
}

}  // namespace perfbench
