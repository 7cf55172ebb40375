#include "layers.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <utility>

#include "common/stats.hpp"

namespace autopipe::e2e {

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  return add(static_cast<std::uint64_t>(s.size()));
}

double percentile(const std::vector<double>& samples, double p) {
  Histogram h;
  h.add_all(samples);
  return h.percentile(p);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

double hwm_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(4096, '\n');
  }
  return peak_rss_mib();
}

namespace {

/// Host seconds of a few milliseconds of priority-queue and std::map work.
double probe_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  using Entry = std::pair<double, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  std::map<std::uint32_t, double> totals;
  for (std::uint32_t i = 0; i < 1000; ++i) queue.push({next(), i});
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const auto [t, id] = queue.top();
    queue.pop();
    totals[id % 4096] += t;
    queue.push({t + next(), id + 7});
  }
  const volatile double sink = totals.begin()->second;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void pin_to_fastest_cpus(std::size_t count) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof set, &set);
    return set;
  }();
  std::vector<std::pair<double, int>> speed;  // probe seconds, cpu
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    speed.push_back({std::min(probe_seconds(), probe_seconds()), cpu});
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (std::size_t i = 0; i < speed.size() && i < count; ++i)
    CPU_SET(speed[i].second, &chosen);
  sched_setaffinity(0, sizeof chosen, speed.empty() ? &allowed : &chosen);
}

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "sim",     "models", "partition", "pipeline", "autopipe",
      "cluster", "faults", "common",    "analysis", "sweep"};
  return names;
}

std::string layer_of_span(std::string_view name) {
  if (name == "planner/solve") return "partition";
  if (name.starts_with("planner/") || name.starts_with("predictor/"))
    return "autopipe";
  return std::string(name.substr(0, name.find('/')));
}

LayerProfile fold_profile(const std::vector<prof::ThreadProfile>& threads,
                          const std::string& loop_layer) {
  LayerProfile out;
  for (const prof::ThreadProfile& thread : threads) {
    // Spans are recorded as they close (children first); order them by
    // start, parents before children, and walk with a stack of open spans.
    std::vector<const prof::Span*> spans;
    spans.reserve(thread.spans.size());
    for (const prof::Span& s : thread.spans) spans.push_back(&s);
    std::sort(spans.begin(), spans.end(),
              [](const prof::Span* a, const prof::Span* b) {
                return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                                  : a->depth < b->depth;
              });
    std::vector<std::size_t> open;  // indices into spans
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()]->depth >= spans[i]->depth)
        open.pop_back();
      if (!open.empty()) child_ns[open.back()] += spans[i]->dur_ns;
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const prof::Span& s = *spans[i];
      const double dur = static_cast<double>(s.dur_ns) * 1e-9;
      out.total_s[s.name] += dur;
      out.calls[s.name] += 1.0;
      if (s.name == "planner/decide_round")
        out.decide_round_us.push_back(dur * 1e6);
      out.self_s[layer_of_span(s.name)] +=
          dur - static_cast<double>(child_ns[i]) * 1e-9;
    }
    for (const prof::Aggregate& a : thread.aggregates) {
      const double total = static_cast<double>(a.total_ns) * 1e-9;
      out.total_s[a.name] += total;
      out.calls[a.name] += static_cast<double>(a.count);
      if (a.name.starts_with("sim/")) {
        out.self_s["sim"] += total;
        out.self_s[loop_layer] -= total;
      }
    }
  }
  return out;
}

}  // namespace autopipe::e2e
