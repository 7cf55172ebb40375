#include "cluster/jobs_spec.hpp"

#include <algorithm>
#include <sstream>

#include "common/expect.hpp"
#include "common/parse.hpp"
#include "models/zoo.hpp"

namespace autopipe::cluster {

namespace {

using parse::split;
using parse::trim;

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw contract_error("jobs spec: line " + std::to_string(line_no) + ": " +
                       what);
}

double parse_double(std::size_t line_no, const std::string& key,
                    const std::string& v) {
  const auto d = parse::number(v);
  if (!d) fail(line_no, "bad number '" + v + "' for '" + key + "'");
  return *d;
}

std::uint64_t parse_u64(std::size_t line_no, const std::string& key,
                        const std::string& v) {
  const auto n = parse::integer<std::uint64_t>(v);
  if (!n)
    fail(line_no, "'" + key + "' wants a non-negative integer, got '" + v +
                      "'");
  return *n;
}

/// `a..b` inclusive ranges and comma lists: "0..3", "0,2,5", "4".
std::vector<sim::WorkerId> parse_worker_list(std::size_t line_no,
                                             const std::string& v) {
  std::vector<sim::WorkerId> out;
  for (const std::string& part : split(v, ',')) {
    const std::string p = trim(part);
    if (p.empty()) fail(line_no, "empty worker entry in '" + v + "'");
    const std::size_t dots = p.find("..");
    if (dots == std::string::npos) {
      out.push_back(
          static_cast<sim::WorkerId>(parse_u64(line_no, "workers", p)));
      continue;
    }
    const std::uint64_t lo =
        parse_u64(line_no, "workers", trim(p.substr(0, dots)));
    const std::uint64_t hi =
        parse_u64(line_no, "workers", trim(p.substr(dots + 2)));
    if (lo > hi) fail(line_no, "empty worker range '" + p + "'");
    if (hi - lo >= 4096) fail(line_no, "worker range '" + p + "' too large");
    for (std::uint64_t w = lo; w <= hi; ++w)
      out.push_back(static_cast<sim::WorkerId>(w));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Break a `k=v k=v ...` token list (the value of a job/preempt statement)
/// into pairs.
std::vector<std::pair<std::string, std::string>> parse_kv_tokens(
    std::size_t line_no, const std::string& value) {
  std::vector<std::pair<std::string, std::string>> out;
  std::istringstream is(value);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == token.size())
      fail(line_no, "expected k=v token, got '" + token + "'");
    out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
  }
  return out;
}

JobSpec parse_job(std::size_t line_no, const std::string& value) {
  JobSpec job;
  bool saw_model = false;
  for (const auto& [k, v] : parse_kv_tokens(line_no, value)) {
    if (k == "model") {
      models::model_by_name(v);  // validate; throws on unknown names
      job.model = v;
      saw_model = true;
    } else if (k == "iterations") {
      job.iterations = static_cast<std::size_t>(parse_u64(line_no, k, v));
      if (job.iterations == 0) fail(line_no, "iterations must be >= 1");
    } else if (k == "warmup") {
      job.warmup = static_cast<std::size_t>(parse_u64(line_no, k, v));
    } else if (k == "priority") {
      job.priority = parse_double(line_no, k, v);
      if (job.priority <= 0) fail(line_no, "priority must be > 0");
    } else if (k == "batch") {
      job.batch = static_cast<std::size_t>(parse_u64(line_no, k, v));
    } else if (k == "workers") {
      job.workers = parse_worker_list(line_no, v);
      if (job.workers.empty()) fail(line_no, "workers list is empty");
    } else {
      fail(line_no, "unknown job attribute '" + k + "'");
    }
  }
  if (!saw_model) fail(line_no, "job statement needs model=<name>");
  if (job.warmup >= job.iterations)
    fail(line_no, "warmup (" + std::to_string(job.warmup) +
                      ") must be < iterations (" +
                      std::to_string(job.iterations) + ")");
  return job;
}

PreemptSpec parse_preempt(std::size_t line_no, const std::string& value) {
  PreemptSpec p;
  bool saw_worker = false, saw_at = false, saw_for = false;
  for (const auto& [k, v] : parse_kv_tokens(line_no, value)) {
    if (k == "worker") {
      p.worker = static_cast<sim::WorkerId>(parse_u64(line_no, k, v));
      saw_worker = true;
    } else if (k == "at") {
      p.at = parse_double(line_no, k, v);
      if (p.at < 0) fail(line_no, "preempt time must be >= 0");
      saw_at = true;
    } else if (k == "for") {
      p.duration = parse_double(line_no, k, v);
      if (p.duration <= 0) fail(line_no, "preempt duration must be > 0");
      saw_for = true;
    } else {
      fail(line_no, "unknown preempt attribute '" + k + "'");
    }
  }
  if (!saw_worker || !saw_at || !saw_for)
    fail(line_no, "preempt statement needs worker=, at= and for=");
  return p;
}

}  // namespace

FleetSpec parse_jobs_spec(const std::string& text) {
  FleetSpec spec;
  bool saw_arbiter = false, saw_window = false;

  for (const auto& [line_no, raw] : parse::statements(text)) {
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
      fail(line_no, "expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty()) fail(line_no, "key '" + key + "' has no value");

    if (key == "arbiter") {
      if (saw_arbiter) fail(line_no, "duplicate 'arbiter' statement");
      if (value != "greedy" && value != "priority" && value != "auction")
        fail(line_no, "unknown arbiter policy '" + value +
                          "' (expected greedy, priority or auction)");
      spec.arbiter = value;
      saw_arbiter = true;
    } else if (key == "claim-window") {
      if (saw_window) fail(line_no, "duplicate 'claim-window' statement");
      spec.claim_window = parse_double(line_no, key, value);
      if (spec.claim_window < 0)
        fail(line_no, "claim-window must be >= 0 seconds");
      saw_window = true;
    } else if (key == "job") {
      spec.jobs.push_back(parse_job(line_no, value));
    } else if (key == "preempt") {
      spec.preempts.push_back(parse_preempt(line_no, value));
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
  }

  if (spec.jobs.empty())
    throw contract_error("jobs spec declares no jobs");
  if (spec.jobs.size() > 64)
    throw contract_error("jobs spec declares " +
                         std::to_string(spec.jobs.size()) +
                         " jobs; the fleet cap is 64");
  return spec;
}

FleetSpec load_jobs_spec(const std::string& arg) {
  return parse_jobs_spec(parse::spec_text(arg, "jobs spec"));
}

void assign_default_workers(FleetSpec& spec, std::size_t num_workers) {
  std::vector<std::uint8_t> taken(num_workers, 0);
  std::size_t unassigned_jobs = 0;
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const JobSpec& job = spec.jobs[j];
    if (job.workers.empty()) {
      ++unassigned_jobs;
      continue;
    }
    for (sim::WorkerId w : job.workers) {
      AUTOPIPE_EXPECT_MSG(w < num_workers,
                          "jobs spec: job " << (j + 1) << " claims worker "
                                            << w << " but the cluster has "
                                            << num_workers << " workers");
      AUTOPIPE_EXPECT_MSG(!taken[w], "jobs spec: worker "
                                         << w
                                         << " is claimed by two jobs");
      taken[w] = 1;
    }
  }

  // Remaining workers split evenly (in id order) across the jobs that
  // declared none, in declaration order; the first `extra` such jobs take
  // one additional worker each.
  std::vector<sim::WorkerId> pool;
  for (sim::WorkerId w = 0; w < num_workers; ++w)
    if (!taken[w]) pool.push_back(w);
  if (unassigned_jobs > 0) {
    AUTOPIPE_EXPECT_MSG(pool.size() >= unassigned_jobs,
                        "jobs spec: " << unassigned_jobs
                                      << " jobs need workers but only "
                                      << pool.size()
                                      << " cluster workers are unclaimed");
    const std::size_t base = pool.size() / unassigned_jobs;
    const std::size_t extra = pool.size() % unassigned_jobs;
    std::size_t next = 0, rank = 0;
    for (JobSpec& job : spec.jobs) {
      if (!job.workers.empty()) continue;
      const std::size_t count = base + (rank < extra ? 1 : 0);
      for (std::size_t i = 0; i < count; ++i) job.workers.push_back(pool[next++]);
      ++rank;
    }
  }

  for (std::size_t j = 0; j < spec.jobs.size(); ++j)
    AUTOPIPE_EXPECT_MSG(!spec.jobs[j].workers.empty(),
                        "jobs spec: job " << (j + 1)
                                          << " ends up with no workers");

  for (const PreemptSpec& p : spec.preempts)
    AUTOPIPE_EXPECT_MSG(p.worker < num_workers,
                        "jobs spec: preempt targets worker "
                            << p.worker << " but the cluster has "
                            << num_workers << " workers");
}

}  // namespace autopipe::cluster
