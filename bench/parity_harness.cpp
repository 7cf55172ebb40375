// Differential parity harness CLI: drives the same randomized scenario
// (alexnet on 3x2, chaos fault plan + background churn, seeded) through the
// binary-heap reference queue and the timing-wheel queue and demands
// byte-identical traces, ledgers, metrics and iteration timelines. This is
// the CI face of tests/parity_test.cpp — fewer fixed seeds there, an
// arbitrary seed window here, plus divergence artifacts for debugging.
//
//   parity_harness [--seeds=N] [--seed0=N] [--jobs=N] [--artifacts=DIR]
//
// With --artifacts, a diverging seed writes every heap and wheel text the
// comparison diffs plus the first-divergence report into DIR
// (parity::write_divergence) so a CI job can upload them.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/expect.hpp"
#include "parity/differential.hpp"

using namespace autopipe;

namespace {

struct SeedRow {
  bool identical = false;
  std::string report;
  parity::ScenarioResult heap;
  parity::ScenarioResult wheel;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags& flags = bench::parse_common_flags(argc, argv);
  const std::size_t seeds = flags.get_count("seeds", 12);
  AUTOPIPE_EXPECT_MSG(seeds >= 1, "--seeds must be at least 1");
  const auto seed0 = static_cast<std::uint64_t>(flags.get_int("seed0", 1));
  const std::string artifacts = flags.get("artifacts", "");

  std::cout << "parity: heap (reference) vs wheel (candidate), " << seeds
            << " seeds from " << seed0 << "\n\n";

  // Seeds are independent, so they fan out across the --jobs pool; each
  // body fills only its own row and the table renders in seed order, so
  // output is identical at any thread count.
  std::vector<SeedRow> rows(seeds);
  bench::for_each_scenario(seeds, [&](std::size_t s) {
    parity::ScenarioConfig config;
    config.seed = seed0 + s;
    rows[s].heap = parity::run_scenario(config, sim::EventQueueKind::kHeap);
    rows[s].wheel = parity::run_scenario(config, sim::EventQueueKind::kWheel);
    const parity::Divergence d = parity::compare(rows[s].heap, rows[s].wheel);
    rows[s].identical = d.identical;
    rows[s].report = d.report;
  });

  TextTable table({"seed", "events", "scheduled", "trace(B)", "verdict"});
  std::size_t failures = 0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const SeedRow& row = rows[s];
    const std::uint64_t seed = seed0 + s;
    table.add_row({std::to_string(seed),
                   std::to_string(row.heap.events_processed),
                   std::to_string(row.heap.scheduled_events),
                   std::to_string(row.heap.trace_text.size()),
                   row.identical ? "identical" : "DIVERGED"});
    if (row.identical) continue;
    ++failures;
    std::cerr << "seed " << seed << " diverged:\n" << row.report;
    if (!artifacts.empty()) {
      parity::write_divergence(artifacts, "seed" + std::to_string(seed),
                               row.heap, row.wheel, row.report);
    }
  }
  table.print(std::cout);

  if (failures != 0) {
    std::cerr << "\n" << failures << "/" << seeds << " seeds diverged";
    if (!artifacts.empty()) std::cerr << "; artifacts in " << artifacts;
    std::cerr << "\n";
  } else {
    std::cout << "\nall " << seeds << " seeds byte-identical across queues\n";
  }
  const int status = bench::exit_status();
  return failures != 0 ? 1 : status;
}
