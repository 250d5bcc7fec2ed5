// Open-loop multi-tenant load harness for relview_serve (DESIGN.md §12).
//
// Open-loop means arrivals come from a clock, not from completions: a
// dispatcher thread draws exponential inter-arrival gaps at the target
// rate and timestamps every batch with its *scheduled* arrival; workers
// (each owning one persistent HTTP connection) execute whatever is
// queued. Latency is measured from the scheduled arrival to the response
// — queueing delay included — so when offered load exceeds what the
// server's fsync path can absorb, the numbers show it honestly instead of
// the harness quietly slowing its own arrivals (the classic
// closed-loop coordinated-omission trap).
//
// The server is expected to *shed* (429) rather than queue without bound
// past the knee: offered vs accepted throughput plus the 429/503 split is
// exactly the admission-control story the front-end claims, and the
// bounded p99 on *accepted* requests is the gate CI enforces.
//
// Usage:
//   loadgen --port=NNNN [--host=127.0.0.1] [--rate=200] [--duration=5]
//           [--connections=8] [--tenants=4] [--emps=64] [--depts=8]
//           [--batch=4] [--theta=0.99] [--seed=42]
//           [--max-retries=3] [--retry-cap-ms=1000]
//           [--json=BENCH_net.json] [--gate] [--p99-limit-ms=500]
//
// With --gate the exit code is nonzero when nothing was accepted or the
// accepted-request p99 exceeds the limit.
//
// Shed handling: a 429 response is honoured, not dropped — the batch is
// rescheduled after the server's Retry-After (capped at --retry-cap-ms,
// at most --max-retries attempts), and its latency keeps accruing from
// the ORIGINAL scheduled arrival, so backoff shows up as tail latency
// rather than vanishing from the books. The arrival stream itself never
// adapts (still open-loop); only already-offered batches are retried.
//
// Shard-sweep mode (in-process, no --port):
//   loadgen --sweep-shards=1,2,4 [--rate=200] [--duration=2]
//           [--connections=32] [--emps=16384] [--depts=1024] [--batch=8]
//           [--theta=0] [--group-window-us=100000] [--sweep-store=DIR]
//           [--json=BENCH_net_shards.json] [--gate] [--min-scaling=2.5]
//           [--max-fsyncs-per-batch=0.5]
//
// boots one single-tenant server per listed shard count (every point on
// the one group-commit path, DurableStore under --sweep-store), drives
// the same saturating open-loop stream at each point, and emits
// throughput-vs-shard-count plus fsyncs-per-committed-batch. With
// --gate the run fails unless last/first throughput >= --min-scaling
// and the largest point's fsyncs/batch < --max-fsyncs-per-batch (the
// group-commit claim). The fsync gate needs >= 8 connections and a
// multi-shard last point; otherwise the JSON records
// "fsync_gate_skipped": true.
//
// The sweep stream is department-clustered fresh inserts (see
// TrafficOptions::shard_local_inserts): acceptance-symmetric across
// shard counts and shard-local per batch, so the ratio isolates the
// write path. The defaults are sized so the per-update FD check — whose
// cost tracks rows-per-department, which dept-hash sharding leaves
// intact — stays small against the per-batch stage/snapshot work that
// sharding does split; shrinking --depts below ~emps/16 re-biases the
// measurement toward the unsplittable check and understates scaling.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.h"
#include "loadgen_traffic.h"
#include "net/http.h"
#include "net/server.h"
#include "net/workload.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "obs/trace_context.h"
#include "util/annotations.h"
#include "util/rng.h"

namespace relview {
namespace bench {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Job {
  int64_t scheduled_nanos = 0;  ///< Original arrival; latency base, always.
  int64_t not_before_nanos = 0;  ///< Earliest execution (Retry-After).
  int attempts = 0;              ///< 429 retries consumed so far.
  int tenant = 0;                ///< Tenant index, for per-tenant tallies.
  uint64_t trace_id = 0;         ///< Injected x-relview-trace id.
  std::string body;
};

/// Mutex-guarded top-K slowest *accepted* requests with the trace ids the
/// harness injected: the client-side handle into the server's spans and
/// wide events. Paste a listed id into a grep over the wide-event log, or
/// match it against GET /v1/trace output, to see exactly where that tail
/// request spent its time (docs/OPERATIONS.md "Debugging a slow batch").
class SlowestTracker {
 public:
  struct Entry {
    int64_t latency_nanos = 0;
    uint64_t trace_id = 0;
  };
  static constexpr size_t kKeep = 5;

  void Record(int64_t latency_nanos, uint64_t trace_id)
      RELVIEW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (entries_.size() >= kKeep &&
        latency_nanos <= entries_.back().latency_nanos) {
      return;
    }
    auto it = entries_.begin();
    while (it != entries_.end() && it->latency_nanos >= latency_nanos) ++it;
    entries_.insert(it, Entry{latency_nanos, trace_id});
    if (entries_.size() > kKeep) entries_.pop_back();
  }

  std::vector<Entry> Snapshot() const RELVIEW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_;
  }

 private:
  mutable Mutex mu_;
  std::vector<Entry> entries_ RELVIEW_GUARDED_BY(mu_);
};

/// Dispatcher-to-worker queue. Unbounded by design: the backlog IS the
/// open-loop signal (it turns into latency, never into dropped offers).
/// Ordered by earliest `not_before_nanos`, so a rescheduled 429 waits out
/// its Retry-After without blocking a worker on fresher jobs.
class JobQueue {
 public:
  void Push(Job job) RELVIEW_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      jobs_.emplace(job.not_before_nanos, std::move(job));
    }
    cv_.NotifyOne();
  }

  void Close() RELVIEW_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.NotifyAll();
  }

  /// False = queue closed and drained.
  bool Pop(Job* out) RELVIEW_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    while (true) {
      if (jobs_.empty()) {
        if (closed_) return false;
        cv_.Wait(mu_);
        continue;
      }
      const auto it = jobs_.begin();
      const int64_t now = NowNanos();
      if (it->first <= now) {
        *out = std::move(it->second);
        jobs_.erase(it);
        return true;
      }
      cv_.WaitFor(mu_, std::chrono::nanoseconds(it->first - now));
    }
  }

 private:
  Mutex mu_;
  CondVar cv_;
  std::multimap<int64_t, Job> jobs_ RELVIEW_GUARDED_BY(mu_);
  bool closed_ RELVIEW_GUARDED_BY(mu_) = false;
};

/// Shared tallies (relaxed atomics; summed after the run).
struct Tally {
  explicit Tally(int tenants)
      : tenant_offered(static_cast<size_t>(tenants)),
        tenant_shed(static_cast<size_t>(tenants)) {}

  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};   // 409 semantic verdicts
  std::atomic<uint64_t> shed{0};       // 429 responses (incl. retried)
  std::atomic<uint64_t> retries{0};    // 429s rescheduled per Retry-After
  std::atomic<uint64_t> shed_final{0};  // 429 after the retry budget
  std::atomic<uint64_t> unavailable{0};  // 503 (deadline/drain/durability)
  std::atomic<uint64_t> other_status{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> updates_applied{0};
  /// In-flight jobs: offered or rescheduled, not yet terminally resolved.
  std::atomic<uint64_t> pending{0};
  /// Per-tenant offered batches / terminally-shed batches.
  std::vector<std::atomic<uint64_t>> tenant_offered;
  std::vector<std::atomic<uint64_t>> tenant_shed;
  LatencyHistogram accepted_latency;
  LatencyHistogram all_latency;
  SlowestTracker slowest;
};

/// One worker's persistent connection.
class Connection {
 public:
  Connection(std::string host, int port)
      : host_(std::move(host)), port_(port) {}
  ~Connection() { Close(); }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool EnsureOpen() {
    if (fd_ >= 0) return true;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port_));
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0) {
      Close();
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Sends `request` and parses one response; -1 on transport error.
  /// Closes the connection when the server asked to. `retry_after_s` (may
  /// be null) receives the parsed Retry-After header seconds, or -1.
  int Roundtrip(const std::string& request, std::string* body,
                int* retry_after_s = nullptr) {
    if (retry_after_s != nullptr) *retry_after_s = -1;
    if (!EnsureOpen()) return -1;
    size_t off = 0;
    while (off < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + off,
                               request.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      Close();
      return -1;
    }
    net::ResponseParser parser;
    char buf[16 * 1024];
    while (!parser.complete() && !parser.error()) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        parser.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      Close();
      return -1;
    }
    if (parser.error()) {
      Close();
      return -1;
    }
    *body = parser.body();
    if (retry_after_s != nullptr) {
      const std::string ra = parser.Header("retry-after");
      if (!ra.empty()) *retry_after_s = std::atoi(ra.c_str());
    }
    std::string connection = parser.Header("connection");
    for (char& c : connection) c = static_cast<char>(std::tolower(c));
    if (connection == "close") Close();
    return parser.status();
  }

 private:
  std::string host_;
  int port_;
  int fd_ = -1;
};

/// Retry budget for 429 responses (see the file comment).
struct RetryPolicy {
  int max_retries = 3;
  int64_t cap_nanos = 1'000'000'000;  // Retry-After cap
};

void WorkerLoop(const std::string& host, int port, JobQueue* queue,
                const RetryPolicy& retry, Tally* tally) {
  Connection conn(host, port);
  Job job;
  while (queue->Pop(&job)) {
    std::string body;
    int retry_after_s = -1;
    int status = conn.Roundtrip(job.body, &body, &retry_after_s);
    if (status < 0) {
      // One reconnect retry: the server may have closed an idle
      // keep-alive socket between requests.
      status = conn.Roundtrip(job.body, &body, &retry_after_s);
    }
    if (status == 429) {
      tally->shed.fetch_add(1, std::memory_order_relaxed);
      if (job.attempts < retry.max_retries) {
        // Honour Retry-After (capped): reschedule the same batch, keeping
        // its original scheduled arrival so the backoff is *charged* to
        // latency instead of dropped from the offered stream.
        const int64_t wait = std::min<int64_t>(
            retry_after_s > 0
                ? static_cast<int64_t>(retry_after_s) * 1'000'000'000
                : retry.cap_nanos,
            retry.cap_nanos);
        ++job.attempts;
        job.not_before_nanos = NowNanos() + wait;
        tally->retries.fetch_add(1, std::memory_order_relaxed);
        queue->Push(std::move(job));
        continue;  // still pending; not a terminal outcome
      }
    }
    // Terminal outcome: record latency from the ORIGINAL arrival.
    const int64_t latency = NowNanos() - job.scheduled_nanos;
    tally->all_latency.Record(latency);
    if (status < 0) {
      tally->transport_errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      switch (status) {
        case 200: {
          tally->accepted.fetch_add(1, std::memory_order_relaxed);
          tally->accepted_latency.Record(latency);
          tally->slowest.Record(latency, job.trace_id);
          const size_t pos = body.find("\"applied\":");
          if (pos != std::string::npos) {
            tally->updates_applied.fetch_add(
                std::strtoull(body.c_str() + pos + 10, nullptr, 10),
                std::memory_order_relaxed);
          }
          break;
        }
        case 409:
          tally->rejected.fetch_add(1, std::memory_order_relaxed);
          break;
        case 429:
          tally->shed_final.fetch_add(1, std::memory_order_relaxed);
          tally->tenant_shed[static_cast<size_t>(job.tenant)].fetch_add(
              1, std::memory_order_relaxed);
          break;
        case 503:
          tally->unavailable.fetch_add(1, std::memory_order_relaxed);
          break;
        default:
          tally->other_status.fetch_add(1, std::memory_order_relaxed);
      }
    }
    tally->pending.fetch_sub(1, std::memory_order_release);
  }
}

/// Everything one measurement run needs; shared by the plain client mode
/// and the in-process shard sweep.
struct DriveOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  double rate = 200.0;
  double duration = 5.0;
  int connections = 8;
  TrafficOptions traffic;
  RetryPolicy retry;
};

/// Runs one open-loop measurement: spawns workers, dispatches the
/// exponential arrival stream for `duration`, then drains every offered
/// (and rescheduled) batch before returning the wall-clock seconds.
double Drive(const DriveOptions& opt, Tally* tally) {
  JobQueue queue;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(opt.connections));
  for (int i = 0; i < opt.connections; ++i) {
    workers.emplace_back([&opt, &queue, tally] {
      WorkerLoop(opt.host, opt.port, &queue, opt.retry, tally);
    });
  }

  // The dispatcher: exponential inter-arrival gaps at `rate` per second,
  // scheduled on an absolute clock so a slow Next() call never drags the
  // offered rate down (gaps accumulate from the previous *scheduled*
  // instant, not from "now").
  TrafficGen gen(opt.traffic);
  Rng arrivals(opt.traffic.seed ^ 0x9E3779B97F4A7C15ULL);
  const int64_t start = NowNanos();
  const int64_t end = start + static_cast<int64_t>(opt.duration * 1e9);
  int64_t next_arrival = start;
  while (next_arrival < end) {
    const int64_t now = NowNanos();
    if (next_arrival > now) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(next_arrival - now));
    }
    GeneratedBatch batch = gen.Next();
    Job job;
    job.scheduled_nanos = next_arrival;
    job.not_before_nanos = next_arrival;
    job.tenant = std::atoi(batch.tenant.c_str() + 1);  // "tN" -> N
    // Mint and inject a trace id per batch so any server-side span tree or
    // wide event is joinable back to this client-side latency sample. A
    // retried 429 reuses the id: the attempts share one logical request.
    job.trace_id = NewTraceId();
    job.body = net::BuildRequest(
        "POST", "/v1/batch", opt.host, batch.body,
        {"x-relview-trace: " + TraceIdHex(job.trace_id)});
    tally->pending.fetch_add(1, std::memory_order_relaxed);
    tally->tenant_offered[static_cast<size_t>(job.tenant)].fetch_add(
        1, std::memory_order_relaxed);
    queue.Push(std::move(job));
    tally->offered.fetch_add(1, std::memory_order_relaxed);
    // Exponential gap: -ln(U)/rate, capped to keep one stuck draw from
    // stalling the stream.
    const double u = static_cast<double>(arrivals.Next() >> 11) * 0x1.0p-53;
    const double gap_s = -std::log(1.0 - u) / opt.rate;
    next_arrival += static_cast<int64_t>(std::min(gap_s, 1.0) * 1e9);
  }
  // Drain: rescheduled 429s re-enter the queue from workers, so close it
  // only once every offered batch has reached a terminal outcome.
  while (tally->pending.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  for (std::thread& t : workers) t.join();
  return static_cast<double>(NowNanos() - start) / 1e9;
}

int IntFlag(int argc, char** argv, const char* name, int def) {
  const std::string v = FlagValue(argc, argv, name);
  return v.empty() ? def : std::atoi(v.c_str());
}

double DoubleFlag(int argc, char** argv, const char* name, double def) {
  const std::string v = FlagValue(argc, argv, name);
  return v.empty() ? def : std::atof(v.c_str());
}

/// "1,2,4" -> {1, 2, 4}.
std::vector<int> ParseIntList(const std::string& s) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < s.size()) {
    const size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(std::atoi(item.c_str()));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// JSON array of the top-K slowest accepted requests with their injected
/// trace ids ([{"latency_ms":..,"trace_id":"<16 hex>"}, ...]).
std::string SlowestJson(const Tally& tally) {
  std::string out = "[";
  bool first = true;
  for (const SlowestTracker::Entry& e : tally.slowest.Snapshot()) {
    if (!first) out += ",";
    first = false;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"latency_ms\":%.3f,\"trace_id\":\"%s\"}",
                  static_cast<double>(e.latency_nanos) / 1e6,
                  TraceIdHex(e.trace_id).c_str());
    out += buf;
  }
  out += "]";
  return out;
}

/// JSON array of per-tenant shed ratios (terminally-shed / offered).
std::string TenantShedRatiosJson(const Tally& tally) {
  std::string out = "[";
  for (size_t i = 0; i < tally.tenant_offered.size(); ++i) {
    if (i > 0) out += ",";
    const uint64_t offered = tally.tenant_offered[i].load();
    const uint64_t shed = tally.tenant_shed[i].load();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f",
                  offered == 0
                      ? 0.0
                      : static_cast<double>(shed) /
                            static_cast<double>(offered));
    out += buf;
  }
  out += "]";
  return out;
}

int Run(int argc, char** argv) {
  const std::string host_flag = FlagValue(argc, argv, "host");
  const std::string host = host_flag.empty() ? "127.0.0.1" : host_flag;
  const int port = std::atoi(FlagValue(argc, argv, "port").c_str());
  if (port <= 0) {
    std::fprintf(stderr, "loadgen: --port=NNNN is required\n");
    return 2;
  }
  DriveOptions opt;
  opt.host = host;
  opt.port = port;
  opt.rate = DoubleFlag(argc, argv, "rate", 200.0);
  opt.duration = DoubleFlag(argc, argv, "duration", 5.0);
  opt.connections = IntFlag(argc, argv, "connections", 8);
  opt.traffic.tenants = IntFlag(argc, argv, "tenants", 4);
  opt.traffic.emps = static_cast<uint32_t>(IntFlag(argc, argv, "emps", 64));
  opt.traffic.depts = static_cast<uint32_t>(IntFlag(argc, argv, "depts", 8));
  opt.traffic.batch_size = IntFlag(argc, argv, "batch", 4);
  opt.traffic.zipf_theta = DoubleFlag(argc, argv, "theta", 0.99);
  opt.traffic.seed = static_cast<uint64_t>(IntFlag(argc, argv, "seed", 42));
  opt.retry.max_retries = IntFlag(argc, argv, "max-retries", 3);
  opt.retry.cap_nanos =
      static_cast<int64_t>(IntFlag(argc, argv, "retry-cap-ms", 1000)) *
      1'000'000;
  const std::string json_path = FlagValue(argc, argv, "json");
  const bool gate = HasFlag(argc, argv, "gate");
  const double p99_limit_ms = DoubleFlag(argc, argv, "p99-limit-ms", 500.0);

  Tally tally(opt.traffic.tenants);
  const double wall_s = Drive(opt, &tally);

  const double rate = opt.rate;
  const int connections = opt.connections;
  const TrafficOptions& traffic = opt.traffic;
  const uint64_t offered = tally.offered.load();
  const uint64_t accepted = tally.accepted.load();
  const double offered_rate = static_cast<double>(offered) / wall_s;
  const double accepted_rate = static_cast<double>(accepted) / wall_s;
  const double p50_ms =
      static_cast<double>(tally.accepted_latency.QuantileNanos(0.50)) / 1e6;
  const double p99_ms =
      static_cast<double>(tally.accepted_latency.QuantileNanos(0.99)) / 1e6;
  const double p999_ms =
      static_cast<double>(tally.accepted_latency.QuantileNanos(0.999)) / 1e6;

  std::printf("loadgen: %.1fs against %s:%d, %d connections\n", wall_s,
              host.c_str(), port, connections);
  std::printf("  offered   %8llu batches (%.1f/s target %.1f/s)\n",
              static_cast<unsigned long long>(offered), offered_rate, rate);
  std::printf("  accepted  %8llu (%.1f/s), %llu updates applied\n",
              static_cast<unsigned long long>(accepted), accepted_rate,
              static_cast<unsigned long long>(tally.updates_applied.load()));
  std::printf("  rejected  %8llu (409)  shed %llu (429, %llu retried, %llu "
              "final)  unavailable %llu (503)  other %llu  transport %llu\n",
              static_cast<unsigned long long>(tally.rejected.load()),
              static_cast<unsigned long long>(tally.shed.load()),
              static_cast<unsigned long long>(tally.retries.load()),
              static_cast<unsigned long long>(tally.shed_final.load()),
              static_cast<unsigned long long>(tally.unavailable.load()),
              static_cast<unsigned long long>(tally.other_status.load()),
              static_cast<unsigned long long>(tally.transport_errors.load()));
  std::printf("  accepted latency p50 %.2fms  p99 %.2fms  p99.9 %.2fms "
              "(open-loop: includes queue wait)\n",
              p50_ms, p99_ms, p999_ms);
  const std::vector<SlowestTracker::Entry> slowest = tally.slowest.Snapshot();
  if (!slowest.empty()) {
    std::printf("  slowest accepted (x-relview-trace ids; join against "
                "GET /v1/trace or the wide-event log):\n");
    for (const SlowestTracker::Entry& e : slowest) {
      std::printf("    %10.2fms  trace %s\n",
                  static_cast<double>(e.latency_nanos) / 1e6,
                  TraceIdHex(e.trace_id).c_str());
    }
  }

  JsonWriter json;
  json.Add("host", host)
      .Add("port", port)
      .Add("rate_target", rate)
      .Add("duration_s", wall_s)
      .Add("connections", connections)
      .Add("tenants", traffic.tenants)
      .Add("batch_size", traffic.batch_size)
      .Add("zipf_theta", traffic.zipf_theta)
      .Add("offered", offered)
      .Add("offered_per_sec", offered_rate)
      .Add("accepted", accepted)
      .Add("accepted_per_sec", accepted_rate)
      .Add("updates_applied", tally.updates_applied.load())
      .Add("rejected_409", tally.rejected.load())
      .Add("shed_429", tally.shed.load())
      .Add("retries", tally.retries.load())
      .Add("shed_final", tally.shed_final.load())
      .Add("unavailable_503", tally.unavailable.load())
      .Add("other_status", tally.other_status.load())
      .Add("transport_errors", tally.transport_errors.load())
      .Add("accepted_p50_ms", p50_ms)
      .Add("accepted_p99_ms", p99_ms)
      .Add("accepted_p999_ms", p999_ms);
  json.Raw("tenant_shed_ratio", TenantShedRatiosJson(tally));
  json.Raw("slowest", SlowestJson(tally));
  json.Raw("accepted_latency", tally.accepted_latency.ToJson());
  json.Raw("all_latency", tally.all_latency.ToJson());

  bool pass = true;
  if (gate) {
    if (accepted == 0) {
      std::fprintf(stderr, "loadgen: GATE FAIL: no batch was accepted\n");
      pass = false;
    }
    if (p99_ms > p99_limit_ms) {
      std::fprintf(stderr,
                   "loadgen: GATE FAIL: accepted p99 %.2fms > limit %.2fms\n",
                   p99_ms, p99_limit_ms);
      pass = false;
    }
  }
  json.Add("pass", pass);
  if (!json_path.empty()) {
    Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "loadgen: json: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

/// One measured point of the shard sweep.
struct SweepPoint {
  int shards = 0;
  double accepted_per_sec = 0;
  uint64_t accepted = 0;
  uint64_t fsyncs = 0;
  uint64_t batches_committed = 0;  // per-shard sub-batches
  double fsyncs_per_batch = 0;
  double p99_ms = 0;
};

/// Shard-sweep mode: boots one in-process single-tenant server per shard
/// count (DurableStore under --sweep-store), drives the identical
/// saturating open-loop stream at each point, and gates the throughput
/// scaling plus the fsyncs-per-committed-batch amortization.
int RunShardSweep(int argc, char** argv) {
  const std::vector<int> sweep =
      ParseIntList(FlagValue(argc, argv, "sweep-shards"));
  if (sweep.empty()) {
    std::fprintf(stderr, "loadgen: bad --sweep-shards list\n");
    return 2;
  }
  std::string store_base = FlagValue(argc, argv, "sweep-store");
  if (store_base.empty()) {
    store_base = "/tmp/relview_shard_sweep." +
                 std::to_string(static_cast<long>(::getpid()));
  }

  DriveOptions opt;
  opt.rate = DoubleFlag(argc, argv, "rate", 200.0);
  opt.duration = DoubleFlag(argc, argv, "duration", 2.0);
  opt.connections = IntFlag(argc, argv, "connections", 32);
  opt.traffic.tenants = 1;  // one tenant: the sweep isolates shard scaling
  opt.traffic.emps =
      static_cast<uint32_t>(IntFlag(argc, argv, "emps", 16384));
  opt.traffic.depts =
      static_cast<uint32_t>(IntFlag(argc, argv, "depts", 1024));
  opt.traffic.batch_size = IntFlag(argc, argv, "batch", 8);
  // Uniform departments: the router spreads the join key evenly, so the
  // sweep measures shard parallelism, not hot-key skew.
  opt.traffic.zipf_theta = DoubleFlag(argc, argv, "theta", 0.0);
  // Department-clustered fresh inserts: every batch is translatable on
  // sharded and unsharded services alike, so all points accept identical
  // work and the ratio isolates the write path. (The default mix would
  // skew it: a conflict insert rejects the whole batch on 1 shard but —
  // by the documented X∩Y FD relaxation — can be accepted across shards,
  // and random replaces go stale asymmetrically.) Clustering each batch
  // on one department also keeps it on one shard — the partitioning's
  // best case, and the layout a join-key router exists to serve.
  opt.traffic.shard_local_inserts = true;
  opt.traffic.seed = static_cast<uint64_t>(IntFlag(argc, argv, "seed", 42));
  opt.retry.max_retries = IntFlag(argc, argv, "max-retries", 3);
  opt.retry.cap_nanos =
      static_cast<int64_t>(IntFlag(argc, argv, "retry-cap-ms", 1000)) *
      1'000'000;
  const uint32_t group_window_us =
      static_cast<uint32_t>(IntFlag(argc, argv, "group-window-us", 100000));
  const std::string json_path = FlagValue(argc, argv, "json");
  const bool gate = HasFlag(argc, argv, "gate");
  const double min_scaling = DoubleFlag(argc, argv, "min-scaling", 2.5);
  const double max_fsyncs_per_batch =
      DoubleFlag(argc, argv, "max-fsyncs-per-batch", 0.5);

  std::vector<SweepPoint> points;
  for (const int shards : sweep) {
    net::TenantSpec spec;
    spec.tenants = 1;
    spec.emps = opt.traffic.emps;
    spec.depts = opt.traffic.depts;
    spec.store_root = store_base + "/s" + std::to_string(shards);
    spec.shards = shards;
    // Every point runs the one commit path (group commit included), so
    // the ratio isolates the shard split. The gathering window applies to
    // the multi-shard points; the 1-shard baseline keeps relview_serve's
    // default of 0.
    spec.group_window_us = shards > 1 ? group_window_us : 0;
    auto tenants = net::MakeTenants(spec);
    if (!tenants.ok()) {
      std::fprintf(stderr, "loadgen: sweep tenants: %s\n",
                   tenants.status().ToString().c_str());
      return 2;
    }
    net::ServerOptions server_options;
    server_options.port = 0;
    // The sweep saturates on purpose; admission shedding would just put
    // retry noise in the way of the capacity measurement.
    server_options.max_write_queue = opt.connections;
    server_options.max_connections = opt.connections + 8;
    auto server =
        net::HttpServer::Start(&*tenants, nullptr, server_options);
    if (!server.ok()) {
      std::fprintf(stderr, "loadgen: sweep server: %s\n",
                   server.status().ToString().c_str());
      return 2;
    }
    opt.port = (*server)->port();

    Tally tally(1);
    const double wall_s = Drive(opt, &tally);
    (*server)->Stop();

    SweepPoint p;
    p.shards = shards;
    p.accepted = tally.accepted.load();
    p.accepted_per_sec = static_cast<double>(p.accepted) / wall_s;
    const ShardedService& svc = *tenants->services[0];
    for (int i = 0; i < svc.shard_count(); ++i) {
      const DurableStore* store = svc.shard(i)->store();
      if (store != nullptr) p.fsyncs += store->fsyncs();
      p.batches_committed += svc.shard(i)->metrics().batches_committed();
    }
    p.fsyncs_per_batch =
        p.batches_committed == 0
            ? 0.0
            : static_cast<double>(p.fsyncs) /
                  static_cast<double>(p.batches_committed);
    p.p99_ms =
        static_cast<double>(tally.accepted_latency.QuantileNanos(0.99)) /
        1e6;
    points.push_back(p);
    std::printf(
        "sweep: %d shard%s  accepted %.1f/s (%llu batches)  fsyncs %llu / "
        "%llu sub-batches = %.3f per batch  p99 %.2fms\n",
        shards, shards == 1 ? " " : "s", p.accepted_per_sec,
        static_cast<unsigned long long>(p.accepted),
        static_cast<unsigned long long>(p.fsyncs),
        static_cast<unsigned long long>(p.batches_committed),
        p.fsyncs_per_batch, p.p99_ms);
  }

  const double scaling =
      points.front().accepted_per_sec > 0
          ? points.back().accepted_per_sec / points.front().accepted_per_sec
          : 0.0;
  std::printf("sweep: throughput scaling %d -> %d shards: %.2fx\n",
              points.front().shards, points.back().shards, scaling);

  bool pass = true;
  const SweepPoint& last = points.back();
  // Below 8 connections (or without a multi-shard point) cohorts cannot
  // be expected to form, so the fsync gate does not apply; say so in the
  // JSON rather than pass it silently.
  const bool fsync_gate_skipped = opt.connections < 8 || last.shards <= 1;
  if (gate) {
    if (points.size() >= 2 && scaling < min_scaling) {
      std::fprintf(stderr,
                   "loadgen: GATE FAIL: scaling %.2fx < required %.2fx\n",
                   scaling, min_scaling);
      pass = false;
    }
    if (fsync_gate_skipped) {
      std::fprintf(stderr,
                   "loadgen: fsyncs/batch gate skipped (needs >= 8 "
                   "connections and a multi-shard last point)\n");
    } else if (last.fsyncs_per_batch >= max_fsyncs_per_batch) {
      std::fprintf(stderr,
                   "loadgen: GATE FAIL: %.3f fsyncs/batch >= limit %.3f on "
                   "the %d-shard point\n",
                   last.fsyncs_per_batch, max_fsyncs_per_batch, last.shards);
      pass = false;
    }
    if (last.accepted == 0) {
      std::fprintf(stderr, "loadgen: GATE FAIL: nothing accepted\n");
      pass = false;
    }
  }

  if (!json_path.empty()) {
    std::string pts = "[";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      if (i > 0) pts += ",";
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "{\"shards\":%d,\"accepted\":%llu,"
                    "\"accepted_per_sec\":%.2f,\"fsyncs\":%llu,"
                    "\"batches_committed\":%llu,\"fsyncs_per_batch\":%.4f,"
                    "\"p99_ms\":%.3f}",
                    p.shards, static_cast<unsigned long long>(p.accepted),
                    p.accepted_per_sec,
                    static_cast<unsigned long long>(p.fsyncs),
                    static_cast<unsigned long long>(p.batches_committed),
                    p.fsyncs_per_batch, p.p99_ms);
      pts += buf;
    }
    pts += "]";
    JsonWriter json;
    json.Add("rate_target", opt.rate)
        .Add("duration_s", opt.duration)
        .Add("connections", opt.connections)
        .Add("emps", static_cast<uint64_t>(opt.traffic.emps))
        .Add("depts", static_cast<uint64_t>(opt.traffic.depts))
        .Add("batch_size", opt.traffic.batch_size)
        .Add("group_window_us", static_cast<uint64_t>(group_window_us))
        .Add("scaling", scaling)
        .Add("min_scaling", min_scaling)
        .Add("max_fsyncs_per_batch", max_fsyncs_per_batch)
        .Add("fsync_gate_skipped", fsync_gate_skipped);
    json.Raw("points", pts);
    json.Add("pass", pass);
    Status st = json.WriteFile(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "loadgen: json: %s\n", st.ToString().c_str());
      return 2;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace relview

int main(int argc, char** argv) {
  if (!relview::bench::FlagValue(argc, argv, "sweep-shards").empty()) {
    return relview::bench::RunShardSweep(argc, argv);
  }
  return relview::bench::Run(argc, argv);
}
