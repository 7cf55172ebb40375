#include "faults/fault_plan.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/expect.hpp"
#include "common/parse.hpp"
#include "common/profile.hpp"

namespace autopipe::faults {

std::string FaultEvent::describe() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::kGpuDown:
      os << "gpu_down worker=" << index;
      break;
    case Kind::kGpuUp:
      os << "gpu_up worker=" << index;
      break;
    case Kind::kLinkDown:
      os << "link_down server=" << index;
      break;
    case Kind::kLinkUp:
      os << "link_up server=" << index;
      break;
    case Kind::kStragglerBegin:
      os << "straggler_begin worker=" << index << " scale=" << value;
      break;
    case Kind::kStragglerEnd:
      os << "straggler_end worker=" << index;
      break;
    case Kind::kProfilerDrop:
      os << "profiler_drop worker=" << index;
      break;
    case Kind::kProfilerRestore:
      os << "profiler_restore worker=" << index;
      break;
  }
  return os.str();
}

FaultPlan& FaultPlan::at(Seconds t, FaultEvent ev) {
  AUTOPIPE_EXPECT(t >= 0.0);
  points_.push_back(FaultPoint{t, std::move(ev)});
  return *this;
}

FaultPlan& FaultPlan::preempt_gpu(sim::WorkerId worker, Seconds t,
                                  Seconds outage) {
  AUTOPIPE_EXPECT(outage > 0.0);
  at(t, gpu_down(worker));
  at(t + outage, gpu_up(worker));
  return *this;
}

FaultPlan& FaultPlan::fail_link(std::size_t server, Seconds t,
                                Seconds outage) {
  AUTOPIPE_EXPECT(outage > 0.0);
  at(t, link_down(server));
  at(t + outage, link_up(server));
  return *this;
}

FaultPlan& FaultPlan::flap_link(std::size_t server, Seconds t, Seconds outage,
                                std::size_t flaps) {
  AUTOPIPE_EXPECT(outage > 0.0);
  AUTOPIPE_EXPECT(flaps >= 1);
  for (std::size_t i = 0; i < flaps; ++i) {
    const Seconds begin = t + static_cast<double>(i) * 2.0 * outage;
    fail_link(server, begin, outage);
  }
  return *this;
}

FaultPlan& FaultPlan::straggle(sim::WorkerId worker, Seconds t,
                               Seconds duration, double scale) {
  AUTOPIPE_EXPECT(duration > 0.0);
  AUTOPIPE_EXPECT(scale > 0.0 && scale < 1.0);
  at(t, straggler_begin(worker, scale));
  at(t + duration, straggler_end(worker));
  return *this;
}

FaultPlan& FaultPlan::drop_profiler(sim::WorkerId worker, Seconds t,
                                    Seconds duration) {
  AUTOPIPE_EXPECT(duration > 0.0);
  at(t, profiler_drop(worker));
  at(t + duration, profiler_restore(worker));
  return *this;
}

void FaultPlan::install(sim::Simulator& simulator, sim::Cluster& cluster,
                        std::function<void(const FaultEvent&)> on_fault) const {
  if (simulator.tracer().enabled()) {
    // Record the worker -> server layout up front. Trace analysis normally
    // infers it from network flows, but a single-stage (all-replicated)
    // partition produces none — and link outages are keyed by server, so
    // without this the downtime would attach to no worker.
    for (sim::WorkerId w = 0; w < cluster.num_workers(); ++w) {
      simulator.tracer().instant(trace::Category::kFault, "topology",
                                 simulator.now(), static_cast<int>(w),
                                 static_cast<int>(cluster.server_of(w)));
    }
  }
  for (const FaultPoint& p : points_) {
    FaultEvent ev = p.event;
    simulator.at(
        p.at,
        [ev, &cluster, on_fault] {
          apply(ev, cluster);
          if (on_fault) on_fault(ev);
        },
        "fault_injection");
  }
}

void FaultPlan::apply(const FaultEvent& ev, sim::Cluster& cluster) {
  PROF_SPAN("faults/apply");
  sim::Simulator& sim = cluster.simulator();
  switch (ev.kind) {
    case FaultEvent::Kind::kGpuDown:
      cluster.set_worker_down(ev.index);
      break;
    case FaultEvent::Kind::kGpuUp:
      cluster.set_worker_up(ev.index);
      break;
    case FaultEvent::Kind::kLinkDown:
      cluster.set_link_down(ev.index);
      break;
    case FaultEvent::Kind::kLinkUp:
      cluster.set_link_up(ev.index);
      break;
    case FaultEvent::Kind::kStragglerBegin:
      // A straggler still makes progress — a soft fault, applied as a
      // throughput scale rather than a down transition.
      cluster.gpu(ev.index).set_throughput_scale(ev.value);
      if (sim.tracer().enabled()) {
        sim.tracer().instant(trace::Category::kFault, "straggler_begin",
                             sim.now(), static_cast<int>(ev.index), 0,
                             {trace::arg("scale", ev.value)});
      }
      sim.metrics().add("cluster.straggler", 1.0);
      break;
    case FaultEvent::Kind::kStragglerEnd:
      cluster.gpu(ev.index).set_throughput_scale(1.0);
      if (sim.tracer().enabled()) {
        sim.tracer().instant(trace::Category::kFault, "straggler_end",
                             sim.now(), static_cast<int>(ev.index), 0);
      }
      break;
    case FaultEvent::Kind::kProfilerDrop:
      cluster.set_profiler_muted(ev.index, true);
      break;
    case FaultEvent::Kind::kProfilerRestore:
      cluster.set_profiler_muted(ev.index, false);
      break;
  }
}

Seconds FaultPlan::horizon() const {
  Seconds h = 0.0;
  for (const FaultPoint& p : points_) h = std::max(h, p.at);
  return h;
}

FaultEvent FaultPlan::gpu_down(sim::WorkerId worker) {
  return FaultEvent{FaultEvent::Kind::kGpuDown, worker, 0.0};
}
FaultEvent FaultPlan::gpu_up(sim::WorkerId worker) {
  return FaultEvent{FaultEvent::Kind::kGpuUp, worker, 0.0};
}
FaultEvent FaultPlan::link_down(std::size_t server) {
  return FaultEvent{FaultEvent::Kind::kLinkDown, server, 0.0};
}
FaultEvent FaultPlan::link_up(std::size_t server) {
  return FaultEvent{FaultEvent::Kind::kLinkUp, server, 0.0};
}
FaultEvent FaultPlan::straggler_begin(sim::WorkerId worker, double scale) {
  return FaultEvent{FaultEvent::Kind::kStragglerBegin, worker, scale};
}
FaultEvent FaultPlan::straggler_end(sim::WorkerId worker) {
  return FaultEvent{FaultEvent::Kind::kStragglerEnd, worker, 0.0};
}
FaultEvent FaultPlan::profiler_drop(sim::WorkerId worker) {
  return FaultEvent{FaultEvent::Kind::kProfilerDrop, worker, 0.0};
}
FaultEvent FaultPlan::profiler_restore(sim::WorkerId worker) {
  return FaultEvent{FaultEvent::Kind::kProfilerRestore, worker, 0.0};
}

namespace {
/// A random straggler runs its GPU at a uniform draw from this range of its
/// normal throughput.
constexpr double kStragglerScaleLo = 0.2;
constexpr double kStragglerScaleHi = 0.6;
}  // namespace

FaultPlan random_plan(const ChaosSpec& spec, std::size_t num_servers,
                      std::size_t gpus_per_server) {
  AUTOPIPE_EXPECT(num_servers >= 1);
  AUTOPIPE_EXPECT(gpus_per_server >= 1);
  AUTOPIPE_EXPECT(spec.clear_by > spec.start);
  AUTOPIPE_EXPECT(spec.max_outage >= spec.min_outage);
  const std::size_t num_workers = num_servers * gpus_per_server;
  Rng rng(spec.seed);

  // One server is never harmed so an emergency re-plan always has a
  // reachable landing zone, whatever the draw.
  const std::size_t protected_server = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(num_servers) - 1));

  FaultPlan plan;
  const Seconds window = spec.clear_by - spec.start;
  auto draw_time = [&](Seconds outage) {
    // Start early enough that the recovery lands before clear_by.
    const Seconds latest = std::max(spec.start, spec.clear_by - outage);
    return rng.uniform(spec.start, std::max(spec.start + 1e-9, latest));
  };
  auto draw_outage = [&] {
    return rng.uniform(spec.min_outage,
                       std::min(spec.max_outage, window));
  };
  auto draw_worker = [&](bool avoid_protected) {
    for (;;) {
      const auto w = static_cast<sim::WorkerId>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_workers) - 1));
      if (!avoid_protected || w / gpus_per_server != protected_server)
        return w;
    }
  };
  auto draw_server = [&] {
    for (;;) {
      const auto s = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(num_servers) - 1));
      if (s != protected_server || num_servers == 1) return s;
    }
  };

  for (std::size_t i = 0; i < spec.gpu_preemptions; ++i) {
    const Seconds outage = draw_outage();
    plan.preempt_gpu(draw_worker(num_servers > 1), draw_time(outage), outage);
  }
  for (std::size_t i = 0; i < spec.link_failures && num_servers > 1; ++i) {
    const Seconds outage = draw_outage();
    plan.fail_link(draw_server(), draw_time(outage), outage);
  }
  for (std::size_t i = 0; i < spec.link_flaps && num_servers > 1; ++i) {
    const std::size_t flaps =
        static_cast<std::size_t>(rng.uniform_int(2, 4));
    const Seconds burst = 2.0 * spec.flap_outage * static_cast<double>(flaps);
    plan.flap_link(draw_server(), draw_time(burst), spec.flap_outage, flaps);
  }
  for (std::size_t i = 0; i < spec.stragglers; ++i) {
    const Seconds duration = draw_outage();
    plan.straggle(draw_worker(false), draw_time(duration), duration,
                  rng.uniform(kStragglerScaleLo, kStragglerScaleHi));
  }
  for (std::size_t i = 0; i < spec.profiler_drops; ++i) {
    const Seconds duration = draw_outage();
    plan.drop_profiler(draw_worker(false), draw_time(duration), duration);
  }
  return plan;
}

namespace {

FaultEvent parse_event_line(const std::string& line, std::size_t line_no,
                            Seconds& t_out) {
  std::istringstream ls(line);
  std::string kind;
  std::string index_text;
  std::string extra;
  double t = -1.0;
  double scale = 0.0;
  const bool fields = static_cast<bool>(ls >> t >> kind >> index_text);
  const std::optional<std::size_t> parsed =
      parse::integer<std::size_t>(index_text);
  AUTOPIPE_EXPECT_MSG(fields && parsed,
                      "fault spec line " << line_no << ": expected "
                      "'<time> <kind> <index> [value]', got '" << line << "'");
  const std::size_t index = *parsed;
  // Only straggler_begin takes a fourth field, and no line takes a fifth.
  AUTOPIPE_EXPECT_MSG(kind != "straggler_begin" || ls >> scale,
                      "fault spec line " << line_no
                                         << ": straggler_begin needs a "
                                            "scale in (0,1)");
  AUTOPIPE_EXPECT_MSG(!(ls >> extra), "fault spec line "
                                          << line_no << ": unexpected '"
                                          << extra << "' after the fields");
  t_out = t;
  if (kind == "gpu_down") return FaultPlan::gpu_down(index);
  if (kind == "gpu_up") return FaultPlan::gpu_up(index);
  if (kind == "link_down") return FaultPlan::link_down(index);
  if (kind == "link_up") return FaultPlan::link_up(index);
  if (kind == "straggler_begin")
    return FaultPlan::straggler_begin(index, scale);
  if (kind == "straggler_end") return FaultPlan::straggler_end(index);
  if (kind == "profiler_drop") return FaultPlan::profiler_drop(index);
  if (kind == "profiler_restore") return FaultPlan::profiler_restore(index);
  AUTOPIPE_EXPECT_MSG(false, "fault spec line " << line_no
                                                << ": unknown fault kind '"
                                                << kind << "'");
  throw contract_error("unreachable");
}

void validate_event(const FaultEvent& ev, std::size_t line_no,
                    std::size_t num_servers, std::size_t gpus_per_server) {
  const bool is_link = ev.kind == FaultEvent::Kind::kLinkDown ||
                       ev.kind == FaultEvent::Kind::kLinkUp;
  if (is_link) {
    AUTOPIPE_EXPECT_MSG(ev.index < num_servers,
                        "fault spec line " << line_no << ": server index "
                                           << ev.index
                                           << " out of range (cluster has "
                                           << num_servers << " servers)");
  } else {
    const std::size_t num_workers = num_servers * gpus_per_server;
    AUTOPIPE_EXPECT_MSG(ev.index < num_workers,
                        "fault spec line " << line_no << ": worker index "
                                           << ev.index
                                           << " out of range (cluster has "
                                           << num_workers << " workers)");
  }
}

FaultPlan parse_lines(std::istream& is, std::size_t num_servers,
                      std::size_t gpus_per_server) {
  FaultPlan plan;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    Seconds t = 0.0;
    FaultEvent ev = parse_event_line(line, line_no, t);
    validate_event(ev, line_no, num_servers, gpus_per_server);
    plan.at(t, ev);
  }
  return plan;
}

FaultPlan parse_random(const std::string& body, std::size_t num_servers,
                       std::size_t gpus_per_server) {
  ChaosSpec spec;
  std::istringstream is(body);
  std::string kv;
  std::size_t entry_no = 0;
  while (std::getline(is, kv, ',')) {
    ++entry_no;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    AUTOPIPE_EXPECT_MSG(eq != std::string::npos,
                        "fault spec: random entry " << entry_no
                            << ": expected key=value, got '" << kv << "'");
    const std::string key = kv.substr(0, eq);
    AUTOPIPE_EXPECT_MSG(!key.empty(), "fault spec: random entry "
                                          << entry_no << ": empty key in '"
                                          << kv << "'");
    const std::string raw = kv.substr(eq + 1);
    const auto parsed = parse::number(raw);
    AUTOPIPE_EXPECT_MSG(parsed.has_value(),
                        "fault spec: random entry "
                            << entry_no << ": field '" << key
                            << "': bad number '" << raw << "'");
    const double value = *parsed;
    // The seed and the counts take whole non-negative numbers.
    const auto whole = [&] {
      const auto n = parse::integer<std::uint64_t>(raw);
      AUTOPIPE_EXPECT_MSG(
          n.has_value(),
          "fault spec: random entry " << entry_no << ": field '" << key
              << "' wants a non-negative integer, got '" << raw << "'");
      return *n;
    };
    if (key == "seed") {
      spec.seed = whole();
    } else if (key == "start") {
      spec.start = value;
    } else if (key == "clear") {
      spec.clear_by = value;
    } else if (key == "gpus") {
      spec.gpu_preemptions = whole();
    } else if (key == "links") {
      spec.link_failures = whole();
    } else if (key == "flaps") {
      spec.link_flaps = whole();
    } else if (key == "stragglers") {
      spec.stragglers = whole();
    } else if (key == "profiler_drops") {
      spec.profiler_drops = whole();
    } else if (key == "min_outage") {
      spec.min_outage = value;
    } else if (key == "max_outage") {
      spec.max_outage = value;
    } else {
      AUTOPIPE_EXPECT_MSG(false, "fault spec: random entry "
                                     << entry_no << ": unknown random key '"
                                     << key << "'");
    }
  }
  return random_plan(spec, num_servers, gpus_per_server);
}

}  // namespace

FaultPlan parse_spec(const std::string& spec, std::size_t num_servers,
                     std::size_t gpus_per_server) {
  AUTOPIPE_EXPECT_MSG(!spec.empty(), "empty fault spec");
  if (spec[0] == '@') {
    const std::string path = spec.substr(1);
    std::ifstream in(path);
    AUTOPIPE_EXPECT_MSG(in.good(),
                        "cannot read fault schedule file " << path);
    return parse_lines(in, num_servers, gpus_per_server);
  }
  if (spec.rfind("random:", 0) == 0) {
    return parse_random(spec.substr(7), num_servers, gpus_per_server);
  }
  // Inline schedule: ';' separates lines.
  std::string text = spec;
  std::replace(text.begin(), text.end(), ';', '\n');
  std::istringstream is(text);
  return parse_lines(is, num_servers, gpus_per_server);
}

}  // namespace autopipe::faults
