// Measurement helpers shared by the workloads: sample statistics, process
// counters, the metric sheet the driver prints, and per-layer self time
// from the program's span trace.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// The highest percentile (at most the 99th) that leaves at least ten
/// samples above it; below eleven samples, the maximum.
double tail(std::vector<double> v);

/// Process CPU seconds (user + system) so far.
double cpuSeconds();

/// Peak resident set of this process (VmHWM) in MiB.
double peakRssMb();

/// Number of logical CPUs this process may run on.
int onlineCpus();

/// The metrics one run prints. A workload sets each metric it measures;
/// the driver refuses to print a declared end-to-end metric left unset.
class Sheet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;

 private:
  std::map<std::string, double> values_;
};

/// Host-clock self time per layer from program trace events: a span's
/// duration minus the part its nested child spans on the same host lane
/// cover, summed by layer (the span name's first component; "seq.*" is the
/// icd layer). Queue spans measure waiting, not work, and are left out.
void addLayerSelfSeconds(const std::vector<mbir::obs::TraceEvent>& events,
                         std::map<std::string, double>& self_s);

}  // namespace perfbench
