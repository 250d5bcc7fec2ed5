// Per-layer probes for the traced run. Each probe drives one layer's
// public entry points from outside, single-threaded, with the workload's
// own stream at the workload's |R|:
//
//   view        a standalone bound ViewTranslator: Can* (the check on a
//               warm engine), then *WithReport (check + T_u + engine
//               maintenance); a rejected batch that mutated reinstalls the
//               saved database exactly as UpdateService rolls back.
//   service     a fresh UpdateService + DurableStore: BatchTimings, the
//               journal's bytes, Checkpoint() and recovery.
//   net         a one-tenant HttpServer at 256 rows on loopback over one
//               keep-alive connection, each round trip joined to its wide
//               event.
//
// The service figures a workload's own run measures under its real
// concurrency (BatchTimings, reads, its own restarts) come from the run;
// a probe figure only fills a name the run left empty.

#include <filesystem>

#include "bench.h"
#include "http_client.h"
#include "net/server.h"
#include "net/workload.h"
#include "obs/trace_context.h"
#include "obs/wide_event.h"

namespace perfbench {

namespace fs = std::filesystem;
using relview::EngineStats;
using relview::Relation;
using relview::Tuple;
using relview::UpdateKind;
using relview::Value;
using relview::ViewTranslator;
using relview::ViewUpdate;

uint64_t JournalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("journal-", 0) == 0) {
      bytes += e.file_size();
    }
  }
  return bytes;
}

namespace {

void PutIfAbsent(MetricMap* m, const std::string& name, double value,
                 const std::string& unit) {
  if (m->count(name) == 0) Put(m, name, value, unit);
}

/// Counter movement across one call; an engine rebuilt in between starts
/// its counters from zero.
uint64_t Moved(uint64_t before, uint64_t after) {
  return after >= before ? after - before : after;
}

/// Runs the check alone; true when the verdict is translatable.
relview::Result<bool> CheckOnly(const ViewTranslator& vt,
                                const ViewUpdate& u) {
  switch (u.kind) {
    case UpdateKind::kInsert: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt.CanInsert(u.t1));
      return r.translatable();
    }
    case UpdateKind::kDelete: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt.CanDelete(u.t1));
      return r.translatable();
    }
    case UpdateKind::kReplace: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt.CanReplace(u.t1, u.t2));
      return r.translatable();
    }
    case UpdateKind::kNumUpdateKinds:
      break;
  }
  return relview::Status::InvalidArgument("sentinel update kind");
}

/// Check and apply; true when the update was applied.
relview::Result<bool> CheckAndApply(ViewTranslator* vt, const ViewUpdate& u) {
  switch (u.kind) {
    case UpdateKind::kInsert: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt->InsertWithReport(u.t1));
      return r.translatable();
    }
    case UpdateKind::kDelete: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt->DeleteWithReport(u.t1));
      return r.translatable();
    }
    case UpdateKind::kReplace: {
      RELVIEW_ASSIGN_OR_RETURN(auto r, vt->ReplaceWithReport(u.t1, u.t2));
      return r.translatable();
    }
    case UpdateKind::kNumUpdateKinds:
      break;
  }
  return relview::Status::InvalidArgument("sentinel update kind");
}

std::vector<Client> MakeClients(const Shape& shape, int clients,
                                uint64_t seed) {
  std::vector<Client> out;
  for (int c = 0; c < clients; ++c) out.emplace_back(shape, c, clients, seed);
  return out;
}

struct ViewFigures {
  Samples check_us, translate_us, rebuild_ms;
  uint64_t batches = 0, rebuilds = 0, checks = 0, applied = 0;
  uint64_t probes_run = 0, probes_screened = 0, rechased = 0;
};

/// Replays `batches` batches of the stream on a standalone translator.
ViewFigures ProbeView(const Shape& shape, int clients, uint64_t seed,
                      int batches, Outcome* outcome) {
  ViewFigures f;
  const ChainSchema schema = MakeChainSchema();
  auto made = MakeSeededTranslator(schema, shape);
  if (!made.ok()) {
    outcome->Fail("view probe: " + made.status().ToString());
    return f;
  }
  ViewTranslator vt = std::move(*made);
  const Tuple warm = ProbeTuple(shape);
  (void)vt.CanInsert(warm);  // build the engine
  std::vector<Client> cs = MakeClients(shape, clients, seed);
  bool cold = false;  // the next check follows a rollback's rebuild
  for (int b = 0; b < batches; ++b) {
    const PlannedBatch p = cs[static_cast<size_t>(b % clients)].Next();
    ++f.batches;
    Relation saved = vt.database();  // the service's batch save
    bool mutated = false;
    int failed = -1;
    for (size_t i = 0; i < p.updates.size(); ++i) {
      const ViewUpdate& u = p.updates[i];
      const EngineStats s0 = vt.engine_stats();
      const int64_t t0 = NowNanos();
      const relview::Result<bool> verdict = CheckOnly(vt, u);
      const int64_t t1 = NowNanos();
      const EngineStats s1 = vt.engine_stats();
      const relview::Result<bool> applied = CheckAndApply(&vt, u);
      const int64_t t2 = NowNanos();
      const EngineStats s2 = vt.engine_stats();
      if (!verdict.ok() || !applied.ok() || *verdict != *applied) {
        outcome->Fail("view probe: check and apply disagree on " +
                      u.ToString());
        return f;
      }
      ++f.checks;
      if (!cold) f.check_us.Add(static_cast<double>(t1 - t0) / kNanosPerUs);
      cold = false;
      f.probes_run += Moved(s0.probes_run, s1.probes_run);
      f.probes_screened += Moved(s0.probes_screened, s1.probes_screened);
      if (!*applied) {
        failed = static_cast<int>(i);
        break;
      }
      mutated = true;
      ++f.applied;
      f.translate_us.Add(static_cast<double>((t2 - t1) - (t1 - t0)) /
                         kNanosPerUs);
      f.rechased +=
          Moved(s1.component_rows_rechased, s2.component_rows_rechased);
    }
    outcome->Check(failed == p.reject_at,
                   "view probe: predicted rejection at " +
                       std::to_string(p.reject_at) + ", got " +
                       std::to_string(failed));
    if (failed >= 0 && mutated) {
      vt.InstallDatabase(std::move(saved));
      ++f.rebuilds;
      cold = true;
    }
  }
  // A rollback's cost at this |R|: InstallDatabase, then the next check
  // rebuilds the engine.
  for (int i = 0; i < 8; ++i) {
    Relation copy = vt.database();
    const int64_t t0 = NowNanos();
    vt.InstallDatabase(std::move(copy));
    (void)vt.CanInsert(warm);
    f.rebuild_ms.Add(static_cast<double>(NowNanos() - t0) / kNanosPerMs);
  }
  return f;
}

struct ServiceFigures {
  WriteStats writes;
  Samples checkpoint_ms, recover_checkpoint_s, recover_journal_s;
  uint64_t journal_bytes = 0, journaled = 0;
};

/// Applies `batches` batches on a fresh durable service (manual
/// checkpoints), then checkpoints and recovers.
ServiceFigures ProbeService(const Shape& shape, int clients, uint64_t seed,
                            int batches, const std::string& dir,
                            Outcome* outcome) {
  ServiceFigures f;
  const ChainSchema schema = MakeChainSchema();
  fs::remove_all(dir);
  auto made = OpenService(schema, shape, dir, 0, true);
  if (!made.ok() || !(*made)->Checkpoint().ok()) {
    outcome->Fail("service probe: set-up failed");
    return f;
  }
  std::unique_ptr<relview::UpdateService> svc = std::move(*made);
  std::vector<Client> cs = MakeClients(shape, clients, seed);
  auto apply = [&](int b) {
    const PlannedBatch p = cs[static_cast<size_t>(b % clients)].Next();
    const int64_t t0 = NowNanos();
    const relview::BatchResult r = svc->ApplyBatch(p.updates);
    f.writes.Record(p, r, NowNanos() - t0, outcome);
  };
  for (int b = 0; b < batches; ++b) apply(b);
  f.journaled = f.writes.updates;
  f.journal_bytes = JournalBytes(dir);
  // The store as a crash would leave it: the seed checkpoint plus the
  // journal of every batch above.
  const std::string journal_copy = dir + "-journal";
  fs::remove_all(journal_copy);
  fs::copy(dir, journal_copy, fs::copy_options::recursive);
  const Relation at_copy = *svc->Snapshot().database;
  for (int i = 0; i < 3; ++i) {
    apply(batches + i);
    const int64_t t0 = NowNanos();
    outcome->Check(svc->Checkpoint().ok(), "service probe: checkpoint");
    f.checkpoint_ms.Add(static_cast<double>(NowNanos() - t0) / kNanosPerMs);
  }
  const Relation final_db = *svc->Snapshot().database;
  svc.reset();
  for (int i = 0; i < 3; ++i) {
    TimedRecovery(schema, shape, dir, 0, final_db, 0, &f.recover_checkpoint_s,
                  outcome);
    TimedRecovery(schema, shape, journal_copy, 0, at_copy, f.journaled,
                  &f.recover_journal_s, outcome);
  }
  fs::remove_all(dir);
  fs::remove_all(journal_copy);
  return f;
}

/// Sends `batches` batches of the stream over one keep-alive connection
/// to a one-tenant server and splits each round trip by its wide event.
void ProbeNet(const Shape& shape, int clients, uint64_t seed, int batches,
              const std::string& root, Report* rep) {
  Outcome* outcome = &rep->outcome;
  fs::remove_all(root);
  relview::net::TenantSpec spec;
  spec.tenants = 1;
  spec.emps = shape.emps;
  spec.depts = shape.depts;
  spec.store_root = root;
  auto tenants = relview::net::MakeTenants(spec);
  if (!tenants.ok()) {
    outcome->Fail("net probe: " + tenants.status().ToString());
    return;
  }
  auto server = relview::net::HttpServer::Start(&*tenants, nullptr);
  if (!server.ok()) {
    outcome->Fail("net probe: " + server.status().ToString());
    return;
  }
  const std::string log = root + "-wide-events.log";
  std::remove(log.c_str());
  outcome->Check(relview::GlobalWideEvents().OpenFile(log, 1).ok(),
                 "net probe: wide-event log");
  std::vector<Client> cs = MakeClients(shape, clients, seed);
  auto conn = std::make_unique<HttpConnection>((*server)->port());
  std::vector<std::pair<uint64_t, int64_t>> roundtrips;
  for (int b = 0; b < batches; ++b) {
    const PlannedBatch p = cs[static_cast<size_t>(b % clients)].Next();
    const uint64_t trace = relview::NewTraceId();
    const std::string request = relview::net::BuildRequest(
        "POST", "/v1/batch", "127.0.0.1", WireBody("t0", p.updates),
        {"x-relview-trace: " + relview::TraceIdHex(trace)});
    std::string body;
    const int64_t t0 = NowNanos();
    const int status = conn->Roundtrip(request, &body);
    roundtrips.emplace_back(trace, NowNanos() - t0);
    const std::string why = Judge(p, FromHttp(status, body));
    outcome->Check(why.empty(), "net probe: " + why);
  }
  // Close first: the drain would otherwise wait out the idle keep-alive
  // connection's receive timeout.
  conn.reset();
  (*server)->Stop();
  relview::GlobalWideEvents().Reset();
  const auto events = ReadWideEvents(log);
  Samples server_us, wire_us;
  for (const auto& [trace, rtt] : roundtrips) {
    const auto it = events.find(relview::TraceIdHex(trace));
    if (it == events.end()) {
      outcome->Fail("net probe: no wide event for a round trip");
      continue;
    }
    const ServerSplit s =
        SplitWideEvent(it->second, static_cast<double>(rtt) / kNanosPerUs);
    server_us.Add(s.server_us);
    wire_us.Add(s.wire_us);
  }
  PutPercentiles(rep, &rep->per_layer, "net.server_us", server_us, "us",
                 true);
  PutPercentiles(rep, &rep->per_layer, "net.wire_us", wire_us, "us", false);
  std::remove(log.c_str());
  server->reset();
  fs::remove_all(root);
}

/// Least-squares slope of y over x.
double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = 0, my = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(x.size());
  my /= static_cast<double>(y.size());
  double num = 0, den = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  return den == 0 ? 0 : num / den;
}

/// Batches that keep a probe to about a second per layer at this size.
int ProbeBatches(const Shape& shape) {
  const uint32_t updates = shape.emps >= 16384  ? 256
                           : shape.emps >= 4096 ? 512
                                                : 1024;
  return static_cast<int>(updates) / shape.batch_size;
}

}  // namespace

void AddLayerProbes(const RunOptions& opt, const Shape& shape, int clients,
                    Report* rep) {
  MetricMap* l = &rep->per_layer;

  // View layer at the workload's |R|, on its own stream.
  const ViewFigures v =
      ProbeView(shape, clients, opt.seed, ProbeBatches(shape), &rep->outcome);
  PutPercentiles(rep, l, "view.check_us", v.check_us, "us", true);
  PutPercentiles(rep, l, "view.translate_us", v.translate_us, "us", true);
  PutPercentiles(rep, l, "view.rebuild_ms", v.rebuild_ms, "ms", false);
  auto ratio = [](uint64_t a, uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  Put(l, "view.engine_rebuilds_per_1k_batches",
      1000.0 * ratio(v.rebuilds, v.batches), "count");
  Put(l, "view.probes_per_check", ratio(v.probes_run, v.checks), "count");
  Put(l, "view.probes_screened_ratio", ratio(v.probes_screened, v.probes_run),
      "1");
  Put(l, "view.rechased_rows_per_update", ratio(v.rechased, v.applied),
      "count");

  // Service layer, single-threaded, at the workload's |R|.
  const ServiceFigures s =
      ProbeService(shape, clients, opt.seed, ProbeBatches(shape),
                   opt.work_dir + "/probe-service", &rep->outcome);
  Put(l, "service.journal_bytes_per_update", ratio(s.journal_bytes,
                                                   s.journaled),
      "bytes");
  Put(l, "service.checkpoint_ms", s.checkpoint_ms.Median(), "ms");
  PutIfAbsent(l, "service.recover_checkpoint_s",
              s.recover_checkpoint_s.Median(), "s");
  PutIfAbsent(l, "service.replay_us_per_update",
              (s.recover_journal_s.Median() - s.recover_checkpoint_s.Median()) *
                  1e6 / static_cast<double>(std::max<uint64_t>(1, s.journaled)),
              "us");

  // Net layer: single-update requests to a 256-row tenant, so the
  // service's O(|R|) save copy and snapshot build, which the server's
  // remainder also holds, stay small beside parse, admission and routing.
  // 2,000 round trips put 20 samples beyond the p99.
  Shape net;
  net.emps = 256;
  net.depts = 16;
  net.batch_size = 1;
  net.conflict_every = 10;
  ProbeNet(net, 1, opt.seed, 2000, opt.work_dir + "/probe-net", rep);

  // |R| sweep on tenant-16k's stream: how each layer grows with |R|.
  std::vector<double> krows, check, translate, rebuild, residual;
  for (uint32_t rows : {1024u, 4096u, 16384u}) {
    Shape sweep;  // tenant-16k's mix: batches of 4, 1 in 8 rejected
    sweep.emps = rows;
    sweep.depts = rows / 16;
    const int batches = 32;
    const ViewFigures sv = ProbeView(sweep, 2, opt.seed, batches,
                                     &rep->outcome);
    const ServiceFigures ss =
        ProbeService(sweep, 2, opt.seed, batches,
                     opt.work_dir + "/probe-sweep", &rep->outcome);
    krows.push_back(rows / 1000.0);
    check.push_back(sv.check_us.Median());
    translate.push_back(sv.translate_us.Median());
    rebuild.push_back(sv.rebuild_ms.Median());
    residual.push_back(ss.writes.residual_us.Median());
    const std::string at = ".at_" + std::to_string(rows);
    Put(&rep->detail, "view.check_us.p50" + at, check.back(), "us");
    Put(&rep->detail, "view.translate_us.p50" + at, translate.back(), "us");
    Put(&rep->detail, "view.rebuild_ms.p50" + at, rebuild.back(), "ms");
    Put(&rep->detail, "service.residual_us.p50" + at, residual.back(), "us");
  }
  Put(l, "view.check_us.slope", Slope(krows, check), "us/krow");
  Put(l, "view.translate_us.slope", Slope(krows, translate), "us/krow");
  Put(l, "view.rebuild_ms.slope", Slope(krows, rebuild), "ms/krow");
  Put(l, "service.residual_us.slope", Slope(krows, residual), "us/krow");
}

}  // namespace perfbench
