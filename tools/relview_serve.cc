// relview_serve: the network front-end binary (DESIGN.md §12).
//
// Boots a multi-tenant set of UpdateServices over the canonical
// Emp/Dept/Mgr chain (src/net/workload.h) and serves them over HTTP/1.1
// with admission control and graceful drain (src/net/server.h). Every
// tenant's service metrics plus the front-end's own counters are exported
// on GET /metrics through one TelemetryRegistry.
//
// Usage:
//   relview_serve [--host=127.0.0.1] [--port=0] [--tenants=4] [--emps=64]
//                 [--depts=8] [--store=DIR] [--checkpoint-every=N]
//                 [--shards=1] [--group-window-us=N]
//                 [--commit-stall-ms=N] [--max-connections=64]
//                 [--max-write-queue=8] [--deadline-ms=5000]
//                 [--idle-timeout-ms=5000] [--drain-timeout-ms=5000]
//                 [--workers=0] [--trace-sample=N] [--wide-events=N]
//                 [--wide-event-log=PATH]
//
// --shards=N partitions each tenant's write path into N shard-local
// services behind the deterministic t[X∩Y]-hash router (src/shard/).
// With a --store, every shard group-commits: concurrent writers on one
// shard share a single fsync per commit cohort. --group-window-us adds a
// leader gathering window (0 = ack as soon as the leader's fsync covers
// the cohort).
//
// Prints "listening on HOST:PORT" once ready (port resolved if 0) and
// serves until SIGTERM/SIGINT, which starts a graceful drain: in-flight
// requests finish, new ones get 503, and the process exits 0 once
// everything is joined. With --store, acked batches are journaled and
// fsync'd before the 200 goes out, so a kill -9 at any instant loses
// nothing that was acknowledged — restart with the same --store and the
// tenants recover. A failed fsync poisons that tenant's store: the batch
// gets a 503 and so does every later write to the tenant (reads still
// serve) until the process restarts and recovers.
//
// Observability (DESIGN.md §14): --trace-sample=N enables the span tracer
// at 1-in-N head sampling (0, the default, leaves it off) — traces export
// via GET /v1/trace as Chrome trace_event JSON, and every request echoes
// its resolved trace id in an `x-relview-trace` response header.
// --wide-events=N emits one structured JSON log line per sampled request
// (1 in N; failures and commit stalls are forced through the sampler) to
// stderr, or to PATH with --wide-event-log. --commit-stall-ms=N arms the
// group-commit stall watchdog on every shard.
//
// Fault injection: RELVIEW_FAILPOINTS is honoured (util/failpoint.h),
// e.g. RELVIEW_FAILPOINTS="commit.fsync=error" turns every write into a
// 503 durability refusal without taking the process down.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/server.h"
#include "net/workload.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "obs/wide_event.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace {

relview::net::HttpServer* g_server = nullptr;

// Async-signal-safe by design: BeginDrain is an atomic store plus
// shutdown(2) of the listening socket.
void HandleSignal(int) {
  if (g_server != nullptr) g_server->BeginDrain();
}

// --name=value (or --name value); empty string when absent.
std::string Flag(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  const std::string bare = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
    if (arg == bare && i + 1 < argc) return argv[i + 1];
  }
  return "";
}

int IntFlag(int argc, char** argv, const char* name, int def) {
  const std::string v = Flag(argc, argv, name);
  return v.empty() ? def : std::atoi(v.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using relview::Failpoints;
  using relview::Status;

  Status fp = Failpoints::InstallFromEnv();
  if (!fp.ok()) {
    std::fprintf(stderr, "relview_serve: RELVIEW_FAILPOINTS: %s\n",
                 fp.ToString().c_str());
    return 2;
  }

  relview::net::TenantSpec spec;
  spec.tenants = IntFlag(argc, argv, "tenants", 4);
  spec.emps = static_cast<uint32_t>(IntFlag(argc, argv, "emps", 64));
  spec.depts = static_cast<uint32_t>(IntFlag(argc, argv, "depts", 8));
  spec.store_root = Flag(argc, argv, "store");
  spec.checkpoint_every =
      static_cast<uint64_t>(IntFlag(argc, argv, "checkpoint-every", 0));
  spec.shards = IntFlag(argc, argv, "shards", 1);
  spec.group_window_us =
      static_cast<uint32_t>(IntFlag(argc, argv, "group-window-us", 0));
  spec.commit_stall_ms =
      static_cast<uint32_t>(IntFlag(argc, argv, "commit-stall-ms", 0));

  const int trace_sample = IntFlag(argc, argv, "trace-sample", 0);
  if (trace_sample > 0) {
    relview::GlobalTracer().Enable(static_cast<uint32_t>(trace_sample));
  }
  const int wide_every = IntFlag(argc, argv, "wide-events", 0);
  if (wide_every > 0) {
    const std::string wide_path = Flag(argc, argv, "wide-event-log");
    if (wide_path.empty()) {
      relview::GlobalWideEvents().Configure(
          stderr, static_cast<uint32_t>(wide_every));
    } else {
      Status ws = relview::GlobalWideEvents().OpenFile(
          wide_path, static_cast<uint32_t>(wide_every));
      if (!ws.ok()) {
        std::fprintf(stderr, "relview_serve: wide-event-log: %s\n",
                     ws.ToString().c_str());
        return 2;
      }
    }
  }

  auto tenants = relview::net::MakeTenants(spec);
  if (!tenants.ok()) {
    std::fprintf(stderr, "relview_serve: tenants: %s\n",
                 tenants.status().ToString().c_str());
    return 2;
  }

  relview::TelemetryRegistry registry;
  for (int i = 0; i < tenants->size(); ++i) {
    tenants->services[static_cast<size_t>(i)]->RegisterTelemetry(
        &registry, "tenant_" + tenants->names[static_cast<size_t>(i)]);
  }

  relview::net::ServerOptions options;
  const std::string host = Flag(argc, argv, "host");
  if (!host.empty()) options.host = host;
  options.port = IntFlag(argc, argv, "port", 0);
  options.worker_threads = IntFlag(argc, argv, "workers", 0);
  options.max_connections = IntFlag(argc, argv, "max-connections", 64);
  options.max_write_queue = IntFlag(argc, argv, "max-write-queue", 8);
  options.request_deadline_ms = IntFlag(argc, argv, "deadline-ms", 5000);
  options.idle_timeout_ms = IntFlag(argc, argv, "idle-timeout-ms", 5000);
  options.drain_timeout_ms = IntFlag(argc, argv, "drain-timeout-ms", 5000);

  auto server =
      relview::net::HttpServer::Start(&*tenants, &registry, options);
  if (!server.ok()) {
    std::fprintf(stderr, "relview_serve: start: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }
  g_server = server->get();

  struct sigaction sa {};
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::printf(
      "listening on %s:%d (%d tenants, %u emps x %u depts, %d shard%s%s%s)"
      "\n",
      options.host.c_str(), (*server)->port(), spec.tenants, spec.emps,
      spec.depts, spec.shards, spec.shards == 1 ? "" : "s",
      spec.store_root.empty() ? ", in-memory" : ", store=",
      spec.store_root.c_str());
  std::fflush(stdout);

  (*server)->Wait();
  std::printf("drained, exiting\n");
  return 0;
}
