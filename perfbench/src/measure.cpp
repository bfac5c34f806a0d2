#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include <sched.h>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) return v.back();
  const std::size_t p99 =
      std::size_t(std::ceil(0.99 * double(n))) - 1;  // nearest-rank p99
  return v[std::min(n - 11, p99)];
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return double(t.tv_sec) + 1e-6 * double(t.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

int onlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return int(sysconf(_SC_NPROCESSORS_ONLN));
}

double Sheet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::runtime_error("metric unset: " + name);
  return it->second;
}

namespace {

std::string layerOf(const std::string& span) {
  const std::string head = span.substr(0, span.find('.'));
  return head == "seq" ? "icd" : head;
}

bool isQueueSpan(const std::string& span) {
  return span.size() >= 6 && span.compare(span.size() - 6, 6, ".queue") == 0;
}

}  // namespace

void addLayerSelfSeconds(const std::vector<mbir::obs::TraceEvent>& events,
                         std::map<std::string, double>& self_s) {
  std::map<int, std::vector<const mbir::obs::TraceEvent*>> lanes;
  for (const auto& ev : events)
    if (ev.clock == mbir::obs::Clock::kHost && !isQueueSpan(ev.name))
      lanes[ev.tid].push_back(&ev);
  for (auto& [tid, lane] : lanes) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(lane.begin(), lane.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    struct Open {
      const mbir::obs::TraceEvent* ev;
      double child_us;
    };
    std::vector<Open> stack;
    const auto close = [&] {
      const Open o = stack.back();
      stack.pop_back();
      self_s[layerOf(o.ev->name)] +=
          std::max(0.0, o.ev->dur_us - o.child_us) * 1e-6;
    };
    for (const auto* ev : lane) {
      const double end = ev->ts_us + ev->dur_us;
      while (!stack.empty() &&
             end > stack.back().ev->ts_us + stack.back().ev->dur_us)
        close();
      if (!stack.empty()) stack.back().child_us += ev->dur_us;
      stack.push_back({ev, 0.0});
    }
    while (!stack.empty()) close();
  }
}

}  // namespace perfbench
