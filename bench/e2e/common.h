// Shared vocabulary of the end-to-end benchmark: run options, the result
// every workload returns, and the timing/statistics helpers they share.

#ifndef D2PR_BENCH_E2E_COMMON_H_
#define D2PR_BENCH_E2E_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace d2pr::e2e {

/// What one benchmark process runs.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phases, split among them per workload.
  double seconds = 20.0;
  /// Tiny graphs, for checking the benchmark itself, not for numbers.
  bool smoke = false;
  /// Scratch directory the workload may create and must remove.
  std::string work_dir;
  /// Chrome trace-event file to write (traced binary only).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed output check.
  std::vector<std::string> failures;
  /// End-to-end metrics (every workload reports the same set).
  std::vector<Metric> metrics;
  /// Per-layer metrics; filled only by the traced binary.
  std::vector<Metric> layer;
  /// Samples behind each phase's statistics.
  std::vector<std::pair<std::string, int64_t>> samples;
  /// Free-form facts about the inputs (graph size, ...).
  std::vector<std::pair<std::string, double>> info;

  /// Records an output check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddLayer(const std::string& name, double value,
                const std::string& unit) {
    layer.push_back({name, value, unit});
  }
};

Report RunServeZipfFull(const Options& options);
Report RunServeUniformTopK(const Options& options);
Report RunSweepPGrid(const Options& options);
Report RunClusterPower(const Options& options);

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Independent stream seed for one use (`tag`) of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// Tail latency robust to transient stalls of the host: splits
/// `in_time_order` into twenty consecutive windows, takes the
/// q-percentile of each, and returns their median. A host stall of a
/// shared VM (seen as ~150 ms every 10-20 s on a 4-vCPU cloud VM) then
/// spoils one or two windows instead of the pooled tail.
double TailPercentile(const std::vector<double>& in_time_order, double q);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Runs `setup` `reps` times and returns its median wall time in
/// seconds. `teardown` runs, untimed, before each set-up and releases
/// what the previous one built; the last set-up's state stays for the
/// measured phases.
double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& setup);

/// CPU placement. The CPUs the process may use split in two: the last
/// one, and all the others. Each call confines the calling thread, and
/// every thread it starts from then on, to one part. Neither does
/// anything when the process has fewer than two CPUs.
void PinToLastCpu();
void PinToOtherCpus();

}  // namespace d2pr::e2e

#endif  // D2PR_BENCH_E2E_COMMON_H_
