// autopipe_trace — offline pipeline-health reports from a recorded trace.
// Reads the deterministic text format (--trace=run.trace from autopipe_sim
// or any bench binary) and answers the questions a tuning session asks:
// where did the time go (summary), why was each GPU idle (bubbles), what
// bounds iteration time (critical-path), what did each partition switch
// cost and buy (switches), what does the run look like (gantt), and what
// changed between two runs (diff). Every analysis subcommand takes --json
// for a machine-readable report with byte-stable formatting; `gate` checks
// such a report against a committed baseline.
//
// Examples:
//   autopipe_trace summary run.trace
//   autopipe_trace bubbles run.trace --json
//   autopipe_trace critical-path run.trace --top=5
//   autopipe_trace switches run.trace
//   autopipe_trace gantt run.trace --width=120
//   autopipe_trace diff before.trace after.trace --tolerance=1e-9
//   autopipe_trace gate BENCH_sweep.json sweep_smoke_baseline.json
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/calibration.hpp"
#include "analysis/causal.hpp"
#include "analysis/critical_path.hpp"
#include "analysis/gantt.hpp"
#include "analysis/gate.hpp"
#include "analysis/ledger_reader.hpp"
#include "analysis/profile_report.hpp"
#include "analysis/report.hpp"
#include "analysis/timeseries_reader.hpp"
#include "analysis/trace_reader.hpp"
#include "analysis/trace_view.hpp"
#include "common/expect.hpp"
#include "common/ledger.hpp"
#include "common/parse.hpp"

using namespace autopipe;

namespace {

// Bumped when any subcommand's output format changes; --json payloads carry
// their own "schema" key on top of this.
constexpr const char* kVersion = "1.2.0";

int usage(std::ostream& os, int code) {
  os <<
      "autopipe_trace — analyze a recorded run (text trace format; see\n"
      "docs/TRACING.md for how to record one)\n\n"
      "  autopipe_trace summary TRACE [--json]\n"
      "      wall clock, iteration-time percentiles, per-worker\n"
      "      utilization, bubble attribution, critical path, switches\n"
      "  autopipe_trace bubbles TRACE [--json]\n"
      "      per-worker idle-time classification (startup fill, upstream/\n"
      "      downstream stall, network contention, reconfig drain, tail)\n"
      "  autopipe_trace critical-path TRACE [--json] [--top=N]\n"
      "      the span chain that bounds the run, aggregated by stage/link\n"
      "  autopipe_trace switches TRACE [--json] [--window=N]\n"
      "      per-switch post-mortems: migration bytes, stall seconds,\n"
      "      throughput before/after, payback iterations\n"
      "  autopipe_trace gantt TRACE [--width=N] [--ledger=PATH]\n"
      "      ASCII timeline, one row per worker; with --ledger, a decision\n"
      "      row marks every planning round\n"
      "  autopipe_trace diff TRACE_A TRACE_B [--json] [--tolerance=X]\n"
      "      compare every analysis metric between two runs\n"
      "  autopipe_trace blame TRACE [--json] [--top=N]\n"
      "                 [--window=T0..T1 | --iteration=N] [--job=K]\n"
      "      walk the causal event graph backward from the slowest point\n"
      "      of the window (default: the whole run) and print the dominant\n"
      "      delay chain, its root cause, and a per-class stall ledger\n"
      "      (see docs/TRACING.md, \"Causality and blame\"). In a\n"
      "      co-tenant trace --job=K anchors the chain at job K's events\n"
      "      (and counts --iteration over job K's marks), so a loser's\n"
      "      slow window roots at the tenant_contention edge naming the\n"
      "      winning job (docs/COTENANCY.md)\n"
      "  autopipe_trace decisions LEDGER [--json] [--check]\n"
      "      the decision ledger, one row per planning round; --check\n"
      "      validates the parse -> reserialize round-trip byte-for-byte\n"
      "  autopipe_trace calibration LEDGER [TRACE] [--json]\n"
      "      prediction-vs-realized calibration: speed MAPE/bias, arbiter\n"
      "      accept rate and regret; with TRACE, also switch-cost error\n"
      "      against the measured stalls (see docs/DECISIONS.md)\n"
      "  autopipe_trace timeseries TS [--json] [--width=N] [--drop=FRAC]\n"
      "      sparkline dashboard over an autopipe-ts-v1 metric time-series\n"
      "      (--timeseries=PATH from autopipe_sim/autopipe_sweep); flags\n"
      "      anomalies such as a speed drop steeper than FRAC (default\n"
      "      0.2) with no decision activity in the same window\n"
      "  autopipe_trace profile PROF [--json] [--top=N] [--flame]\n"
      "      host self-profiler report (autopipe-prof-v1 from --profile=):\n"
      "      per-category and per-span inclusive/exclusive time; --flame\n"
      "      prints collapsed stacks for flamegraph.pl\n"
      "  autopipe_trace gate REPORT BASELINE\n"
      "      gate a JSON report (autopipe_sweep --out, cotenancy_fleet\n"
      "      --out, profile --json) against an earlier copy of it; the\n"
      "      report's schema picks the gated value and its tolerance\n"
      "      (see docs/BENCHMARKS.md, \"Gates\"). Takes no options\n"
      "  autopipe_trace version | --version\n"
      "      print the tool version on one line\n"
      "\n"
      "  critical-path also accepts --ledger=PATH to report which planning\n"
      "  rounds fired inside critical-path wait segments\n"
      "\n"
      "exit codes: 0 success; 1 analysis failure, differing diff, failed\n"
      "--check or gate; 2 usage error (bad flags or arguments). Every\n"
      "--json payload carries a format-version \"schema\" key.\n";
  return code;
}

struct Options {
  std::vector<std::string> positional;
  bool json = false;
  bool check = false;
  std::size_t top = 10;
  std::size_t width = 100;
  std::string window;  // `switches` and the analyses: a count; blame: T0..T1
  double tolerance = 0.0;
  double drop = 0.2;
  bool flame = false;
  std::string ledger;
  std::size_t blame_iteration = 0;  // blame: 1-based iteration, 0 = unset
  std::uint64_t job = 0;            // blame: co-tenant job id, 0 = unset
};

/// Read all of `value` into `out`, a count (parse::integer) or a finite
/// number (parse::number); otherwise say which option wanted what.
template <typename T>
bool read_option(const std::string& option, const std::string& value,
                 T& out) {
  std::optional<T> parsed;
  if constexpr (std::is_integral_v<T>) parsed = parse::integer<T>(value);
  else parsed = parse::number(value);
  if (parsed) out = *parsed;
  else
    std::cerr << "autopipe_trace: " << option << " expects "
              << (std::is_integral_v<T> ? "a non-negative integer"
                                        : "a finite number")
              << ", got '" << value << "'\n";
  return parsed.has_value();
}

/// The iteration window the analyses read from --window (default 5).
bool window_count(const Options& opts, std::size_t& out) {
  out = 5;
  return opts.window.empty() || read_option("--window", opts.window, out);
}

bool parse_options(int argc, char** argv, Options& opts) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // What follows the '=' of the "--name=" branches below.
    const std::string value = arg.substr(arg.find('=') + 1);
    bool ok = true;
    if (arg == "--json") {
      opts.json = true;
    } else if (arg.rfind("--top=", 0) == 0) {
      ok = read_option("--top", value, opts.top);
    } else if (arg.rfind("--width=", 0) == 0) {
      ok = read_option("--width", value, opts.width);
    } else if (arg.rfind("--window=", 0) == 0) {
      opts.window = value;
    } else if (arg.rfind("--iteration=", 0) == 0) {
      ok = read_option("--iteration", value, opts.blame_iteration);
    } else if (arg.rfind("--job=", 0) == 0) {
      ok = read_option("--job", value, opts.job);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      ok = read_option("--tolerance", value, opts.tolerance);
    } else if (arg.rfind("--ledger=", 0) == 0) {
      opts.ledger = value;
    } else if (arg.rfind("--drop=", 0) == 0) {
      ok = read_option("--drop", value, opts.drop);
    } else if (arg == "--flame") {
      opts.flame = true;
    } else if (arg == "--check") {
      opts.check = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    } else {
      opts.positional.push_back(arg);
    }
    if (!ok) return false;
  }
  return true;
}

/// The decoded events of the text trace at `path`. Every analysis of it
/// borrows this one copy through a TraceView or owns it as a CausalGraph.
std::vector<trace::Event> load(const std::string& path) {
  {
    std::ifstream probe(path);
    if (!probe.good())
      throw std::runtime_error("cannot open trace file '" + path + "'");
  }
  std::vector<trace::Event> events;
  analysis::ReadStats stats;
  try {
    events = analysis::parse_text_file(path, &stats);
  } catch (const contract_error& e) {
    // The reader reports malformed input as a contract violation with
    // file:line bookkeeping; a CLI user only needs the diagnostic part.
    const std::string what = e.what();
    const std::string::size_type cut = what.find(" — ");
    throw std::runtime_error(
        "malformed trace '" + path + "': " +
        (cut == std::string::npos ? what
                                  : what.substr(cut + sizeof(" — ") - 1)));
  }
  if (events.empty()) {
    throw std::runtime_error("trace '" + path +
                             "' contains no events (empty or truncated "
                             "file, or not the text trace format?)");
  }
  if (!stats.clean()) {
    // A newer writer's trace still loads; say what the reader healed over
    // so a surprise in the report below has a visible explanation.
    std::cerr << "autopipe_trace: WARNING: trace '" << path << "': ";
    if (stats.skipped_lines > 0)
      std::cerr << stats.skipped_lines << " line(s) with an unknown "
                << "category/phase skipped";
    if (stats.skipped_lines > 0 && stats.dropped_tokens > 0)
      std::cerr << ", ";
    if (stats.dropped_tokens > 0)
      std::cerr << stats.dropped_tokens << " dangling token(s) dropped";
    std::cerr << " (trace from a newer tool version?)\n";
  }
  return events;
}

/// `blame TRACE`: the graph owns the trace's one decoded copy and the view
/// the window needs borrows it from there.
int blame(const Options& opts, std::vector<trace::Event> events) {
  if (!opts.window.empty() && opts.blame_iteration != 0) {
    std::cerr << "blame takes --window or --iteration, not both\n";
    return 2;
  }
  const analysis::CausalGraph graph(std::move(events));
  if (graph.causal_events() == 0) {
    std::cerr << "autopipe_trace: trace carries no causal ids (recorded "
                 "by a pre-causality build, or with tracing compiled "
                 "out)\n";
    return 1;
  }
  if (graph.dangling_causes() > 0) {
    std::cerr << "autopipe_trace: WARNING: " << graph.dangling_causes()
              << " cause reference(s) resolve to no event (truncated "
                 "trace?)\n";
  }
  const analysis::TraceView view(graph.events());
  analysis::BlameReport report;
  if (opts.blame_iteration != 0) {
    report = opts.job != 0
                 ? analysis::blame_iteration(graph, opts.blame_iteration,
                                             opts.job)
                 : analysis::blame_iteration(graph, view,
                                             opts.blame_iteration);
  } else if (!opts.window.empty()) {
    const std::string::size_type dots = opts.window.find("..");
    if (dots == std::string::npos) {
      std::cerr << "--window for blame needs T0..T1 (seconds)\n";
      return 2;
    }
    double t0 = 0.0;
    double t1 = 0.0;
    if (!read_option("--window", opts.window.substr(0, dots), t0) ||
        !read_option("--window", opts.window.substr(dots + 2), t1))
      return 2;
    if (t1 < t0) {
      std::cerr << "--window T0..T1 must not end before it begins\n";
      return 2;
    }
    report = analysis::blame_window(graph, t0, t1, opts.job);
  } else {
    report =
        analysis::blame_window(graph, 0.0, view.wall_clock(), opts.job);
  }
  if (opts.json) {
    analysis::write_blame_json(report, graph, std::cout);
  } else {
    analysis::render_blame(report, graph, opts.top, std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(std::cout, 0);
  }
  if (command == "--version" || command == "version") {
    std::cout << "autopipe_trace " << kVersion
              << " (autopipe-ts-v1, autopipe-prof-v1)\n";
    return 0;
  }
  // Checked before any file is opened or read.
  constexpr std::string_view kCommands[] = {
      "summary", "bubbles", "critical-path", "switches", "gantt", "diff",
      "blame", "decisions", "calibration", "timeseries", "profile", "gate"};
  if (std::ranges::find(kCommands, command) == std::end(kCommands)) {
    std::cerr << "unknown subcommand '" << command << "'\n\n";
    return usage(std::cerr, 2);
  }

  Options opts;
  if (!parse_options(argc, argv, opts)) return 2;

  try {
    if (command == "timeseries") {
      if (opts.positional.size() != 1) {
        std::cerr << "timeseries needs exactly one time-series file\n";
        return 2;
      }
      const analysis::TimeSeries ts =
          analysis::read_timeseries_file(opts.positional[0]);
      const analysis::TimeSeriesReport report =
          analysis::analyze_timeseries(ts, opts.drop);
      if (opts.json) {
        analysis::write_timeseries_json(report, std::cout);
      } else {
        std::cout << analysis::render_timeseries(ts, report, opts.width);
      }
      return 0;
    }

    if (command == "profile") {
      if (opts.positional.size() != 1) {
        std::cerr << "profile needs exactly one profile file\n";
        return 2;
      }
      const std::vector<prof::ThreadProfile> profiles =
          analysis::read_profile_file(opts.positional[0]);
      const analysis::ProfileReport report =
          analysis::build_profile_report(profiles);
      if (opts.flame) {
        analysis::write_collapsed_stacks(profiles, std::cout);
      } else if (opts.json) {
        analysis::write_profile_json(report, std::cout);
      } else {
        analysis::render_profile(report, profiles, opts.top, std::cout);
      }
      return 0;
    }

    if (command == "gate") {
      if (argc != 4 || opts.positional.size() != 2) {
        std::cerr << "gate needs exactly REPORT BASELINE and no options\n";
        return 2;
      }
      const analysis::GateResult result =
          analysis::gate(analysis::read_gate_file(opts.positional[0]),
                         analysis::read_gate_file(opts.positional[1]));
      analysis::write_gate_result(result, std::cout);
      return result.ok() ? 0 : 1;
    }

    if (command == "diff") {
      if (opts.positional.size() != 2) {
        std::cerr << "diff needs exactly two trace files\n";
        return 2;
      }
      std::size_t window = 0;
      if (!window_count(opts, window)) return 2;
      // One trace in memory at a time.
      const auto analyze_file = [window](const std::string& path) {
        const std::vector<trace::Event> events = load(path);
        return analysis::analyze(analysis::TraceView(events), window);
      };
      const analysis::RunAnalysis a = analyze_file(opts.positional[0]);
      const analysis::RunAnalysis b = analyze_file(opts.positional[1]);
      const auto deltas = analysis::diff_analyses(a, b, opts.tolerance);
      if (opts.json) {
        analysis::write_diff_json(deltas, std::cout);
      } else {
        std::cout << analysis::render_diff_text(deltas);
      }
      return deltas.empty() ? 0 : 1;
    }

    if (command == "decisions") {
      if (opts.positional.size() != 1) {
        std::cerr << "decisions needs exactly one ledger file\n";
        return 2;
      }
      const trace::DecisionLedger ledger =
          analysis::read_ledger_file(opts.positional[0]);
      if (opts.check) {
        std::ifstream in(opts.positional[0], std::ios::binary);
        std::ostringstream original;
        original << in.rdbuf();
        std::ostringstream reserialized;
        ledger.write_text(reserialized);
        if (original.str() != reserialized.str()) {
          std::cerr << "autopipe_trace: ledger '" << opts.positional[0]
                    << "' does not round-trip byte-identically\n";
          return 1;
        }
        std::cout << "ok: " << ledger.size()
                  << " decisions, parse -> reserialize byte-identical\n";
        return 0;
      }
      if (opts.json) {
        analysis::write_decisions_json(ledger, std::cout);
      } else {
        analysis::render_decisions(ledger, std::cout);
      }
      return 0;
    }

    if (command == "calibration") {
      if (opts.positional.empty() || opts.positional.size() > 2) {
        std::cerr << "calibration needs a ledger file and optionally a "
                     "trace file\n";
        return 2;
      }
      const trace::DecisionLedger ledger =
          analysis::read_ledger_file(opts.positional[0]);
      analysis::CalibrationReport report;
      if (opts.positional.size() == 2) {
        const std::vector<trace::Event> events = load(opts.positional[1]);
        report = analysis::calibrate(ledger, analysis::TraceView(events));
      } else {
        report = analysis::calibrate(ledger);
      }
      if (opts.json) {
        analysis::write_calibration_json(report, std::cout);
      } else {
        analysis::render_calibration(report, std::cout);
      }
      return 0;
    }

    if (opts.positional.size() != 1) {
      std::cerr << command << " needs exactly one trace file\n";
      return 2;
    }
    std::vector<trace::Event> events = load(opts.positional[0]);
    if (command == "blame") return blame(opts, std::move(events));
    const analysis::TraceView view(events);

    if (command == "gantt") {
      if (opts.ledger.empty()) {
        std::cout << analysis::render_gantt(view, opts.width);
      } else {
        std::cout << analysis::render_gantt(
            view, analysis::read_ledger_file(opts.ledger), opts.width);
      }
      return 0;
    }

    std::size_t window = 0;
    if (!window_count(opts, window)) return 2;
    const analysis::RunAnalysis a = analysis::analyze(view, window);
    if (command == "summary") {
      if (opts.json) {
        analysis::write_summary_json(a, std::cout);
      } else {
        std::cout << analysis::render_summary_text(a) << '\n'
                  << analysis::render_critical_path_text(a, opts.top) << '\n'
                  << analysis::render_switches_text(a);
      }
    } else if (command == "bubbles") {
      if (opts.json) {
        analysis::write_bubbles_json(a, std::cout);
      } else {
        std::cout << analysis::render_bubbles_text(a);
      }
    } else if (command == "critical-path") {
      if (opts.json) {
        analysis::write_critical_path_json(a, std::cout);
      } else {
        std::cout << analysis::render_critical_path_text(a, opts.top);
        if (!opts.ledger.empty()) {
          const trace::DecisionLedger ledger =
              analysis::read_ledger_file(opts.ledger);
          const analysis::CriticalPath path =
              analysis::extract_critical_path(view);
          const auto marks = analysis::decision_path_marks(path, ledger);
          std::size_t on_wait = 0;
          for (const auto& m : marks)
            if (m.on_wait) ++on_wait;
          std::cout << "\ndecisions during critical-path waits: " << on_wait
                    << " of " << marks.size() << '\n';
          for (const auto& m : marks) {
            if (!m.on_wait) continue;
            std::cout << "  decision " << m.id << " at t="
                      << trace::format_double(m.time)
                      << " fired inside a wait segment\n";
          }
        }
      }
    } else if (command == "switches") {
      if (opts.json) {
        analysis::write_switches_json(a, std::cout);
      } else {
        std::cout << analysis::render_switches_text(a);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "autopipe_trace: " << e.what() << "\n";
    return 1;
  }
}
