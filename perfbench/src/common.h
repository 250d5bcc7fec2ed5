// Shared plumbing for the benchmark binary: clocks, sample sets with
// percentiles, the result line and failure accounting.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of measurements in one unit; percentiles by nearest rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    return v[rank];
  }
  double Median() const { return Quantile(0.5); }
  /// The q-quantile of each run of `window` consecutive samples (the last
  /// run takes the remainder), and the median of those. A tail figure that
  /// a single stall of the host cannot move; with fewer than two windows
  /// of samples it is the plain quantile.
  double WindowedQuantile(double q, size_t window) const {
    const size_t windows = values_.size() / window;
    if (windows < 2) return Quantile(q);
    Samples per_window;
    for (size_t w = 0; w < windows; ++w) {
      Samples chunk;
      const size_t end = w + 1 == windows ? values_.size() : (w + 1) * window;
      for (size_t i = w * window; i < end; ++i) chunk.Add(values_[i]);
      per_window.Add(chunk.Quantile(q));
    }
    return per_window.Median();
  }
  /// Samples strictly above the q-quantile: the support of a tail figure.
  size_t Beyond(double q) const {
    const double cut = Quantile(q);
    return static_cast<size_t>(std::count_if(
        values_.begin(), values_.end(), [cut](double x) { return x > cut; }));
  }
  double Sum() const {
    double s = 0;
    for (double x : values_) s += x;
    return s;
  }

 private:
  std::vector<double> values_;
};

/// One reported figure.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics in a stable order.
using MetricMap = std::map<std::string, Metric>;

/// Operations attempted and failed, shared by every thread of a run. A
/// failure is any outcome that differs from the generator's prediction,
/// an error, a refusal or a failed end-state check.
struct Outcome {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};

  void Ok() { attempted.fetch_add(1, std::memory_order_relaxed); }
  /// Counts a failed operation and says why on stderr.
  void Fail(const std::string& why) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    failed.fetch_add(1, std::memory_order_relaxed);
    // Only the first few reasons: one broken invariant can fail thousands
    // of operations.
    if (reported_.fetch_add(1, std::memory_order_relaxed) < 20) {
      std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
    }
  }
  void Check(bool ok, const std::string& why) {
    if (ok) {
      Ok();
    } else {
      Fail(why);
    }
  }

 private:
  std::atomic<uint64_t> reported_{0};
};

/// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
