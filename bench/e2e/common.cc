#include "common.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <span>

#include "common/rng.h"

namespace d2pr::e2e {

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  return SplitMix64(&state);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

double TailPercentile(const std::vector<double>& in_time_order, double q) {
  constexpr size_t kWindows = 20;
  if (in_time_order.size() < kWindows) return Percentile(in_time_order, q);
  std::vector<double> tails;
  for (size_t w = 0; w < kWindows; ++w) {
    const size_t begin = in_time_order.size() * w / kWindows;
    const size_t end = in_time_order.size() * (w + 1) / kWindows;
    tails.push_back(Percentile({in_time_order.begin() + begin,
                                in_time_order.begin() + end},
                               q));
  }
  return Median(tails);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching process's footprint whenever that was larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double MedianSetupSeconds(int reps, const std::function<void()>& teardown,
                          const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    teardown();
    const int64_t t0 = NowNs();
    setup();
    seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return Median(seconds);
}

namespace {

/// The CPUs the process was allowed when it first asked.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

void PinTo(std::span<const int> cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace

void PinToLastCpu() {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() >= 2) PinTo(std::span(cpus).last(1));
}

void PinToOtherCpus() {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() >= 2) PinTo(std::span(cpus).first(cpus.size() - 1));
}

}  // namespace d2pr::e2e
