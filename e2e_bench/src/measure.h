// Timing, statistics and result plumbing shared by the benchmark workloads.
//
// Every workload runs whole rounds of the same operations until the run's
// time budget is spent, reports end-to-end metrics from untraced runs and
// per-layer metrics from a separate traced run (--trace 1), and prints one
// RunResult as the last line of stdout (run.py turns it into the final
// line the benchmark contract asks for).

#ifndef E2E_BENCH_MEASURE_H_
#define E2E_BENCH_MEASURE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Captured during static initialization, i.e. at process start; setup_s
/// is measured from here.
Clock::time_point ProcessStart();

double SecondsSince(Clock::time_point start);
double MsSince(Clock::time_point start);

/// Quantile with linear interpolation between closest ranks (q in [0,1]);
/// 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Sum(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Logs one progress line to stderr, stamped with seconds since process
/// start.
void Note(const std::string& what);

/// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb();

/// Bytes of all regular files under `dir` (recursive).
uint64_t DirBytes(const std::string& dir);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string pghive;    // path of the pghive CLI binary (drift-stream)
  std::string work_dir;  // scratch directory inside the checkout
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // failed output checks

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records failed checks; any problem makes the run incorrect.
  void AddProblems(const std::vector<std::string>& found);
  void AddProblem(const std::string& problem) { AddProblems({problem}); }

  /// The result as one JSON line.
  std::string ToJson() const;
};

/// Per-round samples of named per-layer values; the traced run reports the
/// median over its rounds.
class LayerSamples {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    Series& s = series_[name];
    s.unit = unit;
    s.values.push_back(value);
  }
  /// Sets every sampled metric's median into `result`.
  void Report(RunResult* result) const;

 private:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, Series> series_;
};

}  // namespace e2e

#endif  // E2E_BENCH_MEASURE_H_
