// autopipe_sweep — fan a declarative scenario grid across worker threads
// and report deterministically. The spec (inline or @file) expands to an
// ordered scenario list; each scenario runs on an isolated simulator, and
// results are merged in spec order, so the summary table and
// BENCH_sweep.json are byte-identical at any --jobs value. The exit code
// is 1 when any scenario failed; `autopipe_trace gate` checks the --out
// report against a committed baseline (docs/BENCHMARKS.md, "Gates").
//
// Examples:
//   autopipe_sweep --spec='model = alexnet; seed = 1..4' --jobs=4
//   autopipe_sweep --spec=@bench/sweeps/smoke.sweep --out=BENCH_sweep.json
//   autopipe_trace gate BENCH_sweep.json sweep_smoke_baseline.json
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "analysis/profile_report.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "sweep/engine.hpp"
#include "sweep/outputs.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

using namespace autopipe;

namespace {

void usage() {
  std::cout <<
      "autopipe_sweep — parallel scenario sweeps over the simulator\n\n"
      "  --spec SPEC|@FILE     sweep spec (required); `key = v1, v2` lines\n"
      "                        separated by newlines or ';'. Axes: model,\n"
      "                        system, servers, gpus-per-server, bandwidth,\n"
      "                        extra-jobs, jobs (co-tenant fleet size),\n"
      "                        churn, faults, seed (lo..hi ranges).\n"
      "                        Scalars: iterations, warmup, micro-batches,\n"
      "                        schedule, job-models (fleet model mix,\n"
      "                        'a+b'), arbiter (greedy | priority |\n"
      "                        auction). See docs/BENCHMARKS.md\n"
      "  --jobs N              worker threads (default 1; 0 = one per core)\n"
      "  --out PATH            write BENCH_sweep.json here\n"
      "  --timing              include the host-timing section in --out\n"
      "                        (non-deterministic; leave off for baselines)\n"
      "  --artifacts DIR       per-scenario trace/metrics/ledger files in\n"
      "                        DIR (must exist)\n"
      "  --timeseries [INTERVAL]\n"
      "                        with --artifacts, also write a per-scenario\n"
      "                        <label>.ts metric time-series sampled every\n"
      "                        INTERVAL sim-seconds (default 1;\n"
      "                        autopipe-ts-v1, byte-identical at any --jobs;\n"
      "                        see docs/TELEMETRY.md)\n"
      "  --profile PATH        record the host self-profiler across the\n"
      "                        sweep (planner/predictor/queue/sweep worker\n"
      "                        time) into PATH (autopipe-prof-v1; .json =\n"
      "                        Chrome trace) and add a per-category\n"
      "                        \"profile\" breakdown to the --timing section\n"
      "  --list                print the expanded scenario labels and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    usage();
    return 0;
  }
  const std::string spec_arg = flags.get("spec", "");
  if (spec_arg.empty()) {
    std::cerr << "autopipe_sweep: --spec is required (see --help)\n";
    return 2;
  }

  sweep::SweepSpec spec;
  std::size_t jobs = 1;
  try {
    spec = sweep::load_sweep_spec(spec_arg);
    jobs = flags.get_count("jobs", 1);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sweep: " << e.what() << "\n";
    return 2;
  }
  const std::vector<sweep::ScenarioSpec> scenarios = spec.expand();

  if (flags.get_bool("list", false)) {
    for (const auto& s : scenarios) std::cout << s.label << "\n";
    std::cout << scenarios.size() << " scenario(s)\n";
    return 0;
  }

  const std::string out_path = flags.get("out", "");
  const bool timing = flags.get_bool("timing", false);
  sweep::ArtifactOptions artifacts;
  artifacts.directory = flags.get("artifacts", "");
  if (flags.has("timeseries")) {
    const std::string value = flags.get("timeseries", "");
    // Bare --timeseries parses as the boolean "true": take the default.
    char* end = nullptr;
    artifacts.timeseries_interval =
        value == "true" ? 1.0 : std::strtod(value.c_str(), &end);
    if (!(artifacts.timeseries_interval > 0.0) ||
        (end != nullptr && *end != '\0')) {
      std::cerr << "autopipe_sweep: --timeseries expects a positive "
                   "interval, got '" << value << "'\n";
      return 2;
    }
    if (artifacts.directory.empty()) {
      std::cerr << "autopipe_sweep: --timeseries needs --artifacts DIR\n";
      return 2;
    }
  }
  const std::string profile_path = flags.get("profile", "");
  for (const std::string& flag : flags.unused())
    std::cerr << "warning: unknown flag --" << flag << " (see --help)\n";

  try {
    sweep::start_profile(profile_path);
  } catch (const std::exception& e) {
    std::cerr << "autopipe_sweep: " << e.what() << "\n";
    return 2;
  }

  // Fail on an unwritable output now, not after the whole sweep.
  if (!out_path.empty()) {
    std::ofstream probe(out_path);
    if (!probe.good()) {
      std::cerr << "autopipe_sweep: cannot open output file: " << out_path
                << "\n";
      return 2;
    }
  }

  sweep::SweepResult result;
  result.jobs = sweep::resolve_jobs(jobs);
  result.scenarios.resize(scenarios.size());
  const auto start = std::chrono::steady_clock::now();
  sweep::run_indexed(scenarios.size(), jobs, [&](std::size_t i) {
    result.scenarios[i] = sweep::run_scenario(scenarios[i], artifacts);
  });
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Worker threads joined inside run_indexed, so the capture is complete.
  const analysis::ProfileReport profile_report = analysis::build_profile_report(
      sweep::write_profile(profile_path, std::cout));
  for (const analysis::ProfileEntry& e : profile_report.categories)
    result.profile.push_back({e.name, e.count, e.inclusive_ns, e.exclusive_ns});

  sweep::write_summary_table(result, std::cout);
  std::cout << "wall: " << TextTable::num(result.wall_seconds, 2) << "s on "
            << result.jobs << " thread(s)\n";

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    sweep::write_bench_json(result, out, timing);
    std::cout << "bench json: " << scenarios.size() << " scenarios -> "
              << out_path << "\n";
  }

  bool all_ok = true;
  for (const auto& r : result.scenarios) all_ok = all_ok && r.ok;
  return all_ok ? 0 : 1;
}
