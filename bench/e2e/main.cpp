// End-to-end benchmark driver: repeats rounds of one reference workload for
// the requested host seconds, checks every operation's outputs, and reports
// what it measured by metric name. The last stdout line is one JSON object,
// {"correct", "attempted", "failed", "values"}: the end-to-end values, or
// with --trace 1 the per-layer ones. run.py takes the metrics' names, units
// and order from BENCHMARK.json.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--threads N] [--workdir DIR]
//             [--inject-digest-mismatch]
//
// README.md lists the workloads and defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/profile.hpp"
#include "layers.hpp"
#include "workloads.hpp"

using namespace autopipe;
using namespace autopipe::e2e;

namespace {

using Clock = std::chrono::steady_clock;

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

struct Args {
  Options options;
  bool inject_digest_mismatch = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-digest-mismatch") {
      args.inject_digest_mismatch = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    Options& o = args.options;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--scale") {
      o.scale = std::stod(value);
    } else if (flag == "--threads") {
      o.threads = std::stoul(value);
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  bool known = false;
  for (const std::string& name : workload_names())
    known = known || name == args.options.workload;
  if (!known)
    throw std::invalid_argument("unknown workload " + args.options.workload);
  if (!(args.options.seconds >= 0.0) || !(args.options.scale > 0.0))
    throw std::invalid_argument("need --seconds >= 0 and --scale > 0");
  return args;
}

/// Per-layer values of one traced round: its counts plus the times its
/// host-profiler spans give.
std::map<std::string, double> layer_values(const RoundResult& round,
                                           const LayerProfile& profile) {
  std::map<std::string, double> v = round.layer;
  v["iter_p99_ms"] = round.iter_p99_ms;
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& key) {
    const auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto total = [&](const char* span) {
    return get(profile.total_s, span);
  };
  const auto mean = [&](const char* span, double unit) {
    const double calls = get(profile.calls, span);
    return calls > 0.0 ? total(span) / calls * unit : 0.0;
  };
  for (const std::string& layer : layer_names())
    v[layer + ".self_s"] = get(profile.self_s, layer);
  const double queue_ops = get(profile.calls, "sim/queue_push") +
                           get(profile.calls, "sim/queue_pop");
  if (queue_ops > 0.0) {
    v["sim.queue_ns_per_op"] =
        (total("sim/queue_push") + total("sim/queue_pop")) / queue_ops * 1e9;
  }
  v["sim.cluster_build_ms"] = total("sim/cluster_build") * 1e3;
  v["autopipe.callback_s"] = total("autopipe/on_iteration");
  v["autopipe.decide_round_us"] = mean("planner/decide_round", 1e6);
  v["autopipe.decide_round_p99_us"] =
      percentile(profile.decide_round_us, 99.0);
  v["autopipe.predict_ns"] = mean("predictor/infer", 1e9);
  v["partition.plan_ms"] = mean("partition/plan", 1e3);
  v["partition.solve_us"] = mean("planner/solve", 1e6);
  v["faults.apply_us"] = mean("faults/apply", 1e6);
  v["common.trace.write_s"] = total("common/trace_write");
  v["common.ledger.write_s"] = total("common/ledger_write");
  v["common.timeseries.write_s"] = total("common/timeseries_write");
  v["analysis.parse_s"] = total("analysis/parse");
  v["analysis.view_s"] = total("analysis/view");
  v["analysis.summary_s"] = total("analysis/summary");
  v["analysis.causal_s"] = total("analysis/causal");
  v["analysis.ledger_s"] = total("analysis/ledger");
  v["analysis.timeseries_s"] = total("analysis/timeseries");
  if (v["analysis.parse_s"] > 0.0) {
    v["analysis.parse_events_per_s"] =
        get(round.layer, "common.trace.events") / v["analysis.parse_s"];
  }
  v["models.build_ms"] = total("models/build") * 1e3;
  return v;
}

/// Sum over segments of each segment's fastest repetition: other tenants of
/// a shared host slow the driver for seconds at a time, and only ever add
/// time, while every repetition of a segment does the same simulated work.
double fastest(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> best;
  for (const std::vector<double>& segments : rounds) {
    if (best.size() < segments.size())
      best.resize(segments.size(), std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < segments.size(); ++k)
      best[k] = std::min(best[k], segments[k]);
  }
  return std::accumulate(best.begin(), best.end(), 0.0);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Args& args) {
  const Options& options = args.options;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<RoundResult> untraced;
  std::vector<std::map<std::string, double>> traced_values;
  std::vector<std::vector<double>> traced_run;
  std::vector<std::uint64_t> reference;  // digests of the first round
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // A traced run alternates untraced and traced rounds, so its overhead is
  // measured against rounds of the same process.
  const std::size_t min_rounds = options.trace ? 4 : 3;
  for (std::size_t r = 0; r < min_rounds || elapsed() < options.seconds;
       ++r) {
    const bool traced = options.trace && r % 2 == 1;
    pin_to_fastest_cpus(workload_threads(options));
    if (traced) {
      prof::reset();
      prof::set_enabled(true);
    }
    RoundResult round = run_round(options, r == 0 || traced);
    if (traced) {
      prof::set_enabled(false);
      const LayerProfile profile =
          fold_profile(prof::collect(), round.loop_layer);
      prof::reset();
      traced_values.push_back(layer_values(round, profile));
      traced_run.push_back(round.run_s);
    }

    for (std::size_t i = 0; i < round.ops.size(); ++i) {
      OpResult& op = round.ops[i];
      if (args.inject_digest_mismatch && r > 0) op.digest ^= 1;
      if (r == 0) {
        reference.push_back(op.digest);
      } else if (i >= reference.size() || op.digest != reference[i]) {
        op.failed_checks.push_back("digest: differs from repetition 1");
      }
      ++attempted;
      if (op.failed_checks.empty()) continue;
      ++failed;
      for (const std::string& check : op.failed_checks) {
        std::cerr << "FAILED workload=" << options.workload
                  << " scenario=" << op.scenario << " check=" << check
                  << "\n";
      }
    }
    if (!traced) untraced.push_back(std::move(round));
  }

  std::vector<std::vector<double>> setup_segments, run_segments,
      decision_segments;
  std::vector<double> speed;
  for (const RoundResult& round : untraced) {
    setup_segments.push_back(round.setup_s);
    run_segments.push_back(round.run_s);
    decision_segments.push_back(round.decision_s);
    speed.push_back(round.samples_per_s);
  }
  std::map<std::string, double> values;
  if (options.trace) {
    // Per-layer values are medians over the traced rounds.
    std::map<std::string, std::vector<double>> samples;
    for (const auto& round : traced_values)
      for (const auto& [name, value] : round) samples[name].push_back(value);
    for (const auto& [name, v] : samples) values[name] = median(v);
    values["profile.overhead_s"] = fastest(traced_run) - fastest(run_segments);
  } else {
    const double decisions = untraced.empty() ? 0.0 : untraced[0].decisions;
    values = {{"wall_s", fastest(run_segments)},
              {"setup_s", fastest(setup_segments)},
              {"decision_us", decisions > 0.0 ? fastest(decision_segments) /
                                                    decisions * 1e6
                                              : 0.0},
              {"samples_per_s", median(speed)},
              {"peak_rss_mb", peak_rss_mib()}};
  }

  Digest results;  // every operation's simulated results, in order
  for (const std::uint64_t d : reference) results.add(d);
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(results.value()));
  std::cout << "e2e workload=" << options.workload << " seed=" << options.seed
            << " trace=" << (options.trace ? 1 : 0)
            << " rounds=" << untraced.size() + traced_values.size()
            << " traced_rounds=" << traced_values.size()
            << " elapsed_s=" << elapsed() << " digest=" << digest << "\n";
  std::cout << "  attempted=" << attempted << " failed=" << failed
            << " failed_frac="
            << (attempted > 0 ? static_cast<double>(failed) / attempted : 0.0)
            << "\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"values\": {";
  const char* sep = "";
  for (const auto& [name, value] : values) {
    std::cout << sep << "\"" << name << "\": " << json_number(value);
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n"
              << "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale F] [--threads N] [--workdir DIR] "
                 "[--inject-digest-mismatch]\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 1;
  }
}
