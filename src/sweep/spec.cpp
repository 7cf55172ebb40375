#include "sweep/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/expect.hpp"
#include "common/parse.hpp"
#include "models/zoo.hpp"
#include "pipeline/schedule.hpp"

namespace autopipe::sweep {

namespace {

using parse::split;
using parse::trim;

double parse_double(const std::string& key, const std::string& v) {
  const auto d = parse::number(v);
  if (!d) {
    throw contract_error("sweep spec: bad number '" + v + "' for key '" +
                         key + "'");
  }
  return *d;
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  const auto n = parse::integer<std::uint64_t>(v);
  AUTOPIPE_EXPECT_MSG(n.has_value(), "sweep spec: key '"
                                         << key
                                         << "' wants a non-negative "
                                            "integer, got '" << v << "'");
  return *n;
}

/// Seeds accept `lo..hi` inclusive ranges alongside plain values.
std::vector<std::uint64_t> parse_seed_values(
    const std::vector<std::string>& values) {
  std::vector<std::uint64_t> out;
  for (const std::string& v : values) {
    const std::size_t dots = v.find("..");
    if (dots == std::string::npos) {
      out.push_back(parse_u64("seed", v));
      continue;
    }
    const std::uint64_t lo = parse_u64("seed", trim(v.substr(0, dots)));
    const std::uint64_t hi = parse_u64("seed", trim(v.substr(dots + 2)));
    AUTOPIPE_EXPECT_MSG(lo <= hi, "sweep spec: empty seed range '" << v
                                                                   << "'");
    AUTOPIPE_EXPECT_MSG(hi - lo < 100000,
                        "sweep spec: seed range '" << v << "' too large");
    for (std::uint64_t s = lo; s <= hi; ++s) out.push_back(s);
  }
  return out;
}

std::string format_compact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Characters outside [A-Za-z0-9._-] become '_' so labels are safe as file
/// name components.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' &&
        c != '_' && c != '-') {
      c = '_';
    }
  }
  return out;
}

}  // namespace

std::size_t SweepSpec::scenario_count() const {
  return models.size() * systems.size() * servers.size() *
         gpus_per_server.size() * bandwidth_gbps.size() * extra_jobs.size() *
         jobs.size() * churn.size() * faults.size() * seeds.size();
}

std::vector<ScenarioSpec> SweepSpec::expand() const {
  // A jobs value n > 1 is a fleet cycling through job-models, or through
  // the scenario's model when there are none (the parser validated names).
  std::vector<std::string> mix;
  for (const std::string& name : split(job_models, '+'))
    mix.push_back(trim(name));
  const auto fleet_of = [&](std::size_t n, const std::string& model) {
    cluster::FleetSpec fleet;
    if (n < 2) return fleet;
    fleet.arbiter = arbiter;
    for (std::size_t k = 0; k < n; ++k) {
      cluster::JobSpec job;
      job.model = mix.empty() ? model : mix[k % mix.size()];
      job.iterations = iterations;
      job.warmup = warmup;
      fleet.jobs.push_back(std::move(job));
    }
    return fleet;
  };

  std::vector<ScenarioSpec> out;
  out.reserve(scenario_count());
  for (const std::string& model : models)
    for (const std::string& system : systems)
      for (std::size_t srv : servers)
        for (std::size_t gps : gpus_per_server)
          for (double bw : bandwidth_gbps)
            for (int extra : extra_jobs)
              for (std::size_t fleet : jobs)
                for (bool ch : churn)
                  for (std::size_t f = 0; f < faults.size(); ++f)
                    for (std::uint64_t seed : seeds) {
                      ScenarioSpec s;
                      s.model = model;
                      s.system = system;
                      s.servers = srv;
                      s.gpus_per_server = gps;
                      s.bandwidth_gbps = bw;
                      s.extra_jobs = extra;
                      s.fleet = fleet_of(fleet, model);
                      s.churn = ch;
                      s.faults = faults[f];
                      s.seed = seed;
                      s.iterations = iterations;
                      s.warmup = warmup;
                      s.micro_batches = micro_batches;
                      s.schedule = schedule;
                      // The faults axis appears by index: fault specs hold
                      // characters labels cannot (':', '=', ','), and the
                      // full string is recorded in the JSON per scenario.
                      // The fleet component appears only for actual fleets
                      // so single-tenant labels stay byte-stable.
                      s.label = sanitize(model) + "." + sanitize(system) +
                                ".s" + std::to_string(srv) + "x" +
                                std::to_string(gps) + ".bw" +
                                format_compact(bw) + ".j" +
                                std::to_string(extra) +
                                (fleet > 1
                                     ? ".J" + std::to_string(fleet) + "." +
                                           sanitize(arbiter)
                                     : "") +
                                (ch ? ".c1" : ".c0") + ".f" +
                                std::to_string(f) + ".seed" +
                                std::to_string(seed);
                      out.push_back(std::move(s));
                    }
  return out;
}

SweepSpec parse_sweep_spec(const std::string& text) {
  SweepSpec spec;
  // First line each key appeared on. A repeated key used to be silently
  // last-wins — a hard-to-spot way to lose half a sweep — so it is now a
  // parse error naming both occurrences.
  std::map<std::string, std::size_t> seen;

  for (const auto& [line_no, raw] : parse::statements(text)) {
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    AUTOPIPE_EXPECT_MSG(eq != std::string::npos,
                        "sweep spec: expected 'key = value', got '" << line
                                                                    << "'");
    const std::string key = trim(line.substr(0, eq));
    if (const auto it = seen.find(key); it != seen.end()) {
      throw contract_error(
          "sweep spec: duplicate key '" + key + "' (lines " +
          std::to_string(it->second) + " and " + std::to_string(line_no) +
          "); merge the value lists into one statement");
    }
    seen.emplace(key, line_no);
    std::vector<std::string> values;
    for (const std::string& v : split(line.substr(eq + 1), ','))
      values.push_back(trim(v));
    AUTOPIPE_EXPECT_MSG(!values.empty() && !values[0].empty(),
                        "sweep spec: key '" << key << "' has no values");

    const auto scalar = [&]() -> const std::string& {
      AUTOPIPE_EXPECT_MSG(values.size() == 1,
                          "sweep spec: key '" << key
                                              << "' takes a single value");
      return values[0];
    };

    if (key == "model") {
      for (const std::string& v : values) models::model_by_name(v);  // validate
      spec.models = values;
    } else if (key == "system") {
      for (const std::string& v : values)
        AUTOPIPE_EXPECT_MSG(v == "autopipe" || v == "pipedream" ||
                                v == "even",
                            "sweep spec: unknown system '" << v << "'");
      spec.systems = values;
    } else if (key == "servers") {
      spec.servers.clear();
      for (const std::string& v : values) {
        const std::uint64_t n = parse_u64(key, v);
        AUTOPIPE_EXPECT_MSG(n >= 1, "sweep spec: servers must be >= 1");
        spec.servers.push_back(static_cast<std::size_t>(n));
      }
    } else if (key == "gpus-per-server") {
      spec.gpus_per_server.clear();
      for (const std::string& v : values) {
        const std::uint64_t n = parse_u64(key, v);
        AUTOPIPE_EXPECT_MSG(n >= 1,
                            "sweep spec: gpus-per-server must be >= 1");
        spec.gpus_per_server.push_back(static_cast<std::size_t>(n));
      }
    } else if (key == "bandwidth") {
      spec.bandwidth_gbps.clear();
      for (const std::string& v : values) {
        const double bw = parse_double(key, v);
        AUTOPIPE_EXPECT_MSG(bw > 0, "sweep spec: bandwidth must be > 0");
        spec.bandwidth_gbps.push_back(bw);
      }
    } else if (key == "extra-jobs") {
      spec.extra_jobs.clear();
      for (const std::string& v : values)
        spec.extra_jobs.push_back(static_cast<int>(parse_u64(key, v)));
    } else if (key == "churn") {
      spec.churn.clear();
      for (const std::string& v : values) {
        AUTOPIPE_EXPECT_MSG(v == "true" || v == "false",
                            "sweep spec: churn wants true/false, got '"
                                << v << "'");
        spec.churn.push_back(v == "true");
      }
    } else if (key == "faults") {
      spec.faults.clear();
      for (const std::string& v : values)
        spec.faults.push_back(v == "none" ? "" : v);
    } else if (key == "seed") {
      spec.seeds = parse_seed_values(values);
    } else if (key == "iterations") {
      spec.iterations = static_cast<std::size_t>(parse_u64(key, scalar()));
      AUTOPIPE_EXPECT_MSG(spec.iterations >= 1,
                          "sweep spec: iterations must be >= 1");
    } else if (key == "warmup") {
      spec.warmup = static_cast<std::size_t>(parse_u64(key, scalar()));
    } else if (key == "micro-batches") {
      spec.micro_batches = static_cast<std::size_t>(parse_u64(key, scalar()));
      AUTOPIPE_EXPECT_MSG(spec.micro_batches >= 1,
                          "sweep spec: micro-batches must be >= 1");
    } else if (key == "schedule") {
      spec.schedule = scalar();
      pipeline::schedule_by_name(spec.schedule);  // rejects unknown names
    } else if (key == "jobs") {
      spec.jobs.clear();
      for (const std::string& v : values) {
        const std::uint64_t n = parse_u64(key, v);
        AUTOPIPE_EXPECT_MSG(n >= 1 && n <= 64,
                            "sweep spec: jobs must be in [1, 64], got '"
                                << v << "'");
        spec.jobs.push_back(static_cast<std::size_t>(n));
      }
    } else if (key == "job-models") {
      const std::string& v = scalar();
      std::istringstream parts(v);
      std::string part;
      bool any = false;
      while (std::getline(parts, part, '+')) {
        const std::string name = trim(part);
        AUTOPIPE_EXPECT_MSG(!name.empty(),
                            "sweep spec: empty model in job-models '"
                                << v << "'");
        models::model_by_name(name);  // validate
        any = true;
      }
      AUTOPIPE_EXPECT_MSG(any, "sweep spec: job-models has no models");
      spec.job_models = v;
    } else if (key == "arbiter") {
      const std::string& v = scalar();
      AUTOPIPE_EXPECT_MSG(v == "greedy" || v == "priority" || v == "auction",
                          "sweep spec: unknown arbiter '" << v << "'");
      spec.arbiter = v;
    } else {
      throw contract_error("sweep spec: unknown key '" + key + "'");
    }
  }
  AUTOPIPE_EXPECT_MSG(spec.warmup < spec.iterations,
                      "sweep spec: warmup (" << spec.warmup
                                             << ") must be < iterations ("
                                             << spec.iterations << ")");
  AUTOPIPE_EXPECT_MSG(spec.scenario_count() > 0,
                      "sweep spec expands to zero scenarios");
  return spec;
}

SweepSpec load_sweep_spec(const std::string& arg) {
  return parse_sweep_spec(parse::spec_text(arg, "sweep spec"));
}

}  // namespace autopipe::sweep
