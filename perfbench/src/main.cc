// relview_perfbench: runs one workload of the relview benchmark and prints
// what it measured. perfbench/run.py builds and invokes it; see README.md.
//
//   relview_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR
//   relview_perfbench --selftest
//
// Output: one "metric <name> <value> <unit>" line per figure, then a last
// line holding one JSON object with the keys correct, attempted, failed,
// end_to_end and per_layer.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

std::string Arg(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return "";
}

std::string JsonMetrics(const perfbench::MetricMap& m,
                        perfbench::Outcome* outcome) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    double v = metric.value;
    if (!std::isfinite(v)) {
      outcome->Fail("metric " + name + " is not a finite number");
      v = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const perfbench::MetricMap& m) {
  for (const auto& [name, metric] : m) {
    std::printf("metric %s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) {
      return perfbench::RunSelfTest();
    }
  }
  perfbench::RunOptions opt;
  opt.workload = Arg(argc, argv, "--workload");
  opt.seed = std::strtoull(Arg(argc, argv, "--seed").c_str(), nullptr, 10);
  opt.seconds = std::atof(Arg(argc, argv, "--seconds").c_str());
  opt.trace = Arg(argc, argv, "--trace") == "1";
  opt.work_dir = Arg(argc, argv, "--work-dir");
  if (opt.work_dir.empty() || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: relview_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR | --selftest\n");
    return 2;
  }

  perfbench::Report rep;
  std::filesystem::remove_all(opt.work_dir);
  std::filesystem::create_directories(opt.work_dir);
  if (opt.workload == "tenant-16k") {
    perfbench::RunTenant16k(opt, &rep);
  } else if (opt.workload == "restart-16k") {
    perfbench::RunRestart16k(opt, &rep);
  } else {
    std::fprintf(stderr, "relview_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::filesystem::remove_all(opt.work_dir);

  // A workload that could not run measured nothing: it fails, never
  // reports zeros.
  if (rep.end_to_end.empty()) rep.outcome.Fail("the workload did not run");
  const std::string e2e = JsonMetrics(rep.end_to_end, &rep.outcome);
  const std::string layers = JsonMetrics(rep.per_layer, &rep.outcome);
  const uint64_t attempted = rep.outcome.attempted.load();
  const uint64_t failed = rep.outcome.failed.load();
  PrintMetrics(rep.end_to_end);
  PrintMetrics(rep.per_layer);
  PrintMetrics(rep.detail);
  std::printf("metric failed_ratio %.6g 1\n",
              attempted == 0 ? 1.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"end_to_end\":%s,\"per_layer\":%s}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), e2e.c_str(), layers.c_str());
  return failed == 0 ? 0 : 1;
}
