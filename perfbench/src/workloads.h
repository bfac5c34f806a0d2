// The benchmark's workloads. Each builds its inputs from the seed, measures
// for the given number of seconds in whole rounds of the same operations,
// checks every output it reports on, and fills the metric sheets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

/// Host threads each workload pins: the simulated-kernel host pool, the
/// PSV-ICD thread count and the load generator's connections. Fixed so the
/// numbers do not move with the core count of the machine.
inline constexpr int kHostThreads = 4;
/// Simulated devices for the sharded run, the batch and the service.
inline constexpr int kDevices = 4;

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< empty scratch directory owned by this run
  Clock::time_point process_start;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> check_failures;
  Sheet e2e;     ///< end-to-end metrics (untraced runs)
  Sheet layers;  ///< per-layer metrics (traced runs)

  /// Record a check's result; keeps the first few failure messages.
  void check(bool ok, const std::string& what, const std::string& why) {
    if (ok) return;
    if (check_failures.size() < 8) check_failures.push_back(what + ": " + why);
    else if (check_failures.size() == 8) check_failures.push_back("...");
  }
  bool correct() const { return check_failures.empty(); }
};

/// Name the step in progress; a failure is reported against it on stderr.
void setStep(const std::string& step);

Outcome runOffline(const RunArgs& args);
Outcome runService(const RunArgs& args, bool repeat_mix);

}  // namespace perfbench
