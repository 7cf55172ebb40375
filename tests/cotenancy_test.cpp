// Co-tenancy tier (ctest label `cotenancy`): N concurrent AutoPipe jobs on
// one shared fabric, held to the fleet invariants docs/COTENANCY.md
// promises:
//
//  * no GPU is owned by two jobs at any instant (probed mid-run, not just
//    at the end);
//  * per-job mini-batch conservation holds throughout — injected ==
//    completed + dropped + active for every executor at every probe;
//  * every arbiter conflict resolves to exactly one winner, every loser is
//    denied and its doomed attempt aborted through the rollback path;
//  * fleet throughput is exactly the sum of per-job throughputs.
//
// The invariant sweep runs 50 seeded fleet shapes (2–4 tenants, all three
// arbiter policies, seed-varied preemption). The acceptance scenario pins
// the ISSUE's 4-job contested-GPU case under each policy and checks the
// resolution is deterministic. The tail of the file is the `--jobs-spec`
// reader: grammar unit tests plus the same fuzz harness the trace reader
// gets (truncate / bit-flip / interleave — parse or contract_error, never
// crash).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/job_manager.hpp"
#include "cluster/jobs_spec.hpp"
#include "common/expect.hpp"
#include "common/ledger.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/simulator.hpp"
#include "golden_file.hpp"

namespace autopipe {
namespace {

using cluster::FleetReport;
using cluster::FleetSpec;
using cluster::JobManager;
using cluster::JobSpec;
using cluster::PreemptSpec;

// ---------------------------------------------------------------------------
// Invariant probe: everything that must hold at *every* instant of a fleet
// run, returned as a description of the first violation ("" = clean).
// ---------------------------------------------------------------------------

std::string fleet_invariant_violation(const JobManager& manager,
                                      std::size_t num_workers) {
  std::ostringstream os;

  // Exclusive ownership: every worker sits in at most one job's owned set,
  // and the manager's owner map agrees with the per-job sets.
  std::vector<std::uint64_t> owner(num_workers, 0);
  for (std::size_t i = 0; i < manager.num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager.job(i);
    for (sim::WorkerId w : job.owned) {
      if (w >= num_workers) {
        os << "job " << job.id << " owns out-of-range worker " << w;
        return os.str();
      }
      if (owner[w] != 0) {
        os << "worker " << w << " owned by jobs " << owner[w] << " and "
           << job.id << " at once";
        return os.str();
      }
      owner[w] = job.id;
    }
  }
  for (sim::WorkerId w = 0; w < num_workers; ++w) {
    if (manager.owner_of(w) != owner[w]) {
      os << "owner map says worker " << w << " belongs to job "
         << manager.owner_of(w) << " but the owned sets say " << owner[w];
      return os.str();
    }
  }

  for (std::size_t i = 0; i < manager.num_jobs(); ++i) {
    const cluster::JobRuntime& job = manager.job(i);

    // Routed-worker exclusion: a running job's partition may transiently
    // route a worker it lost to revocation (until its replan migrates off
    // it), but never a worker some *other* job owns.
    if (!job.finished) {
      for (sim::WorkerId w :
           job.executor->current_partition().all_workers()) {
        if (owner[w] != 0 && owner[w] != job.id) {
          os << "job " << job.id << " routes worker " << w
             << " owned by job " << owner[w];
          return os.str();
        }
      }
    }

    // Per-job mini-batch conservation across faults, revocations and
    // arbiter-killed switches.
    const auto& fs = job.executor->fault_stats();
    if (fs.injected !=
        fs.completed + fs.dropped + job.executor->active_batches()) {
      os << "job " << job.id << " batch conservation broken: injected "
         << fs.injected << " != completed " << fs.completed << " + dropped "
         << fs.dropped << " + active " << job.executor->active_batches();
      return os.str();
    }
  }
  return "";
}

// Per-round arbitration accounting recovered from the trace: every grant
// names its claim count, every losing claim is a deny instant causally
// chained to that grant. Returns "" when every conflict produced exactly
// one winner and claims-1 denials.
std::string arbitration_violation(const std::vector<trace::Event>& events,
                                  const FleetReport& report) {
  struct Round {
    std::size_t claims = 0;
    std::size_t denies = 0;
  };
  std::map<std::uint64_t, Round> rounds;  // grant eid -> round
  std::size_t guard_denies = 0;
  for (const trace::Event& ev : events) {
    if (ev.name == "arbiter_grant") {
      const std::string* claims = ev.find_arg("claims");
      if (claims == nullptr) return "arbiter_grant without a claims arg";
      rounds[ev.eid].claims =
          static_cast<std::size_t>(std::strtoull(claims->c_str(), nullptr, 10));
    } else if (ev.name == "arbiter_deny") {
      if (ev.find_arg("winner") == nullptr) {
        ++guard_denies;  // ownership-guard denial, not part of a round
        continue;
      }
      const auto it = rounds.find(ev.cause);
      if (it == rounds.end())
        return "arbiter_deny not chained to any arbiter_grant";
      ++it->second.denies;
    }
  }

  std::ostringstream os;
  std::size_t conflicts = 0, denies = 0;
  for (const auto& [eid, round] : rounds) {
    if (round.claims == 0 || round.denies != round.claims - 1) {
      os << "grant eid " << eid << " saw " << round.claims << " claims but "
         << round.denies << " denials (want claims-1)";
      return os.str();
    }
    if (round.claims >= 2) ++conflicts;
    denies += round.denies;
  }
  if (rounds.size() != report.grants) {
    os << "trace holds " << rounds.size() << " grants, report says "
       << report.grants;
    return os.str();
  }
  if (conflicts != report.conflicts) {
    os << "trace holds " << conflicts << " conflicts, report says "
       << report.conflicts;
    return os.str();
  }
  if (denies + guard_denies != report.denials) {
    os << "trace holds " << denies << "+" << guard_denies
       << " denials, report says " << report.denials;
    return os.str();
  }
  return "";
}

// ---------------------------------------------------------------------------
// 50-seed invariant sweep: fleet shape, arbiter policy and preemption
// timing all vary with the seed; the probe fires every 50 simulated
// milliseconds for the whole run.
// ---------------------------------------------------------------------------

class CotenancySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CotenancySeeds, FleetInvariantsHoldThroughout) {
  const std::uint64_t seed = GetParam();
  sim::Simulator simulator;
  simulator.tracer().set_enabled(true);

  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = 3;
  cluster_config.gpus_per_server = 2;
  sim::Cluster cluster(simulator, cluster_config);

  static const char* kPolicies[] = {"greedy", "priority", "auction"};
  static const char* kModels[] = {"alexnet", "resnet18", "vgg16"};

  FleetSpec fleet;
  fleet.arbiter = kPolicies[seed % 3];
  const std::size_t njobs = 2 + seed % 3;  // 2..4 tenants on 6 GPUs
  for (std::size_t k = 0; k < njobs; ++k) {
    JobSpec job;
    job.model = kModels[(seed + k) % 3];
    job.iterations = 12 + (seed + k) % 5;
    job.warmup = 3;
    job.priority = 1.0 + static_cast<double>((seed + k) % 4);
    fleet.jobs.push_back(job);
  }
  PreemptSpec preempt;
  preempt.worker =
      static_cast<sim::WorkerId>(seed % cluster.num_workers());
  preempt.at = 0.3 + 0.07 * static_cast<double>(seed % 7);
  preempt.duration = 0.5 + 0.1 * static_cast<double>(seed % 5);
  fleet.preempts.push_back(preempt);
  cluster::assign_default_workers(fleet, cluster.num_workers());

  JobManager manager(simulator, cluster, fleet);

  std::size_t probes = 0;
  std::vector<std::string> violations;
  auto probe = std::make_shared<std::function<void()>>();
  *probe = [&manager, &cluster, &simulator, &probes, &violations, probe] {
    ++probes;
    const std::string v =
        fleet_invariant_violation(manager, cluster.num_workers());
    if (!v.empty() && violations.size() < 5) {
      std::ostringstream os;
      os << "t=" << simulator.now() << ": " << v;
      violations.push_back(os.str());
    }
    simulator.after(0.05, [probe] { (*probe)(); }, "invariant_probe");
  };
  simulator.after(0.01, [probe] { (*probe)(); }, "invariant_probe");

  const FleetReport report = manager.run();
  *probe = nullptr;  // the closure holds `probe`: break the cycle

  EXPECT_GT(probes, 10u) << "probe barely ran";
  std::ostringstream all;
  for (const std::string& v : violations) all << v << "\n";
  EXPECT_TRUE(violations.empty()) << "seed " << seed << ":\n" << all.str();

  // Every tenant finishes its target and contributes a positive measured
  // throughput; fleet throughput is the *exact* sum of the per-job values.
  ASSERT_EQ(report.jobs.size(), njobs);
  double sum = 0.0;
  for (const FleetReport::JobSummary& j : report.jobs) {
    EXPECT_GT(j.report.throughput, 0.0) << "job " << j.id;
    EXPECT_GT(j.report.iterations, 0u) << "job " << j.id;
    sum += j.report.throughput;
  }
  EXPECT_DOUBLE_EQ(report.fleet_throughput, sum);
  EXPECT_GE(report.jain, 1.0 / static_cast<double>(njobs) - 1e-12);
  EXPECT_LE(report.jain, 1.0 + 1e-12);

  // Exactly one winner per claim round, claims-1 chained denials per
  // conflict, and the report's counters agree with the trace.
  const std::string arb =
      arbitration_violation(simulator.tracer().events(), report);
  EXPECT_TRUE(arb.empty()) << "seed " << seed << ": " << arb;
  EXPECT_GE(report.denials, report.conflicts);
  EXPECT_LE(report.contention_aborts, report.denials);
  std::size_t job_aborts = 0;
  for (const FleetReport::JobSummary& j : report.jobs)
    job_aborts += j.contention_aborts;
  EXPECT_EQ(job_aborts, report.contention_aborts);
}

INSTANTIATE_TEST_SUITE_P(FiftySeeds, CotenancySeeds,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Acceptance scenario: the ISSUE's 4-job fleet where the preempted GPU's
// return is contested, pinned under each arbiter policy.
// ---------------------------------------------------------------------------

struct GrantRound {
  std::string worker;
  std::uint64_t winner_job = 0;
  std::size_t claims = 0;
  std::vector<std::uint64_t> loser_jobs;  // from chained arbiter_deny events
};

struct ContestedOutcome {
  FleetReport report;
  std::size_t grants_for_preempted = 0;
  std::vector<GrantRound> rounds;  // every grant, in event order
};

constexpr double kContestedPriorities[] = {1.0, 4.0, 2.0, 1.5};

/// Runs the contested fleet under `policy`. With `ledger` set, the decision
/// ledger is on and its finalized text form lands there.
ContestedOutcome run_contested_fleet(const std::string& policy,
                                     std::string* ledger = nullptr) {
  constexpr sim::WorkerId kPreempted = 1;
  sim::Simulator simulator;
  simulator.tracer().set_enabled(true);
  if (ledger) simulator.ledger().set_enabled(true);

  sim::ClusterConfig cluster_config;
  cluster_config.num_servers = 4;
  cluster_config.gpus_per_server = 2;
  sim::Cluster cluster(simulator, cluster_config);

  // Same shape as bench/cotenancy_fleet.cpp: mixed models with spread
  // priorities so gain-max and priority-max genuinely disagree.
  static const char* kModels[] = {"alexnet", "vgg16", "resnet18", "alexnet"};
  static const std::size_t kIterations[] = {30, 15, 25, 20};

  FleetSpec fleet;
  fleet.arbiter = policy;
  for (std::size_t k = 0; k < 4; ++k) {
    JobSpec job;
    job.model = kModels[k];
    job.iterations = kIterations[k];
    job.warmup = 5;
    job.priority = kContestedPriorities[k];
    fleet.jobs.push_back(job);
  }
  PreemptSpec preempt;
  preempt.worker = kPreempted;
  preempt.at = 0.8;
  preempt.duration = 1.0;
  fleet.preempts.push_back(preempt);
  cluster::assign_default_workers(fleet, cluster.num_workers());

  JobManager manager(simulator, cluster, fleet);

  ContestedOutcome out;
  out.report = manager.run();
  if (ledger) {
    simulator.ledger().finalize("run_end");
    std::ostringstream os;
    simulator.ledger().write_text(os);
    *ledger = os.str();
  }
  std::map<std::uint64_t, std::size_t> round_of;  // grant eid -> index
  for (const trace::Event& ev : simulator.tracer().events()) {
    if (ev.name == "arbiter_grant") {
      GrantRound round;
      if (const std::string* worker = ev.find_arg("worker"))
        round.worker = *worker;
      if (const std::string* job = ev.find_arg("job"))
        round.winner_job = std::strtoull(job->c_str(), nullptr, 10);
      if (const std::string* claims = ev.find_arg("claims"))
        round.claims = static_cast<std::size_t>(
            std::strtoull(claims->c_str(), nullptr, 10));
      if (round.worker == std::to_string(kPreempted))
        ++out.grants_for_preempted;
      round_of[ev.eid] = out.rounds.size();
      out.rounds.push_back(std::move(round));
    } else if (ev.name == "arbiter_deny" &&
               ev.find_arg("winner") != nullptr) {
      const auto it = round_of.find(ev.cause);
      if (it == round_of.end()) {
        ADD_FAILURE() << "arbiter_deny not chained to any grant";
        continue;
      }
      if (const std::string* job = ev.find_arg("job"))
        out.rounds[it->second].loser_jobs.push_back(
            std::strtoull(job->c_str(), nullptr, 10));
    }
  }
  return out;
}

class ContestedGpu : public ::testing::TestWithParam<const char*> {};

TEST_P(ContestedGpu, ResolvesToOneWinnerDeterministically) {
  const std::string policy = GetParam();
  const ContestedOutcome a = run_contested_fleet(policy);

  // Exactly one winning reconfiguration commits for the preempted GPU's
  // return, under every policy.
  EXPECT_EQ(a.grants_for_preempted, 1u) << policy;
  // Somewhere in the run two controllers requested the same freed GPU, and
  // every such conflict resolved to one winner plus cleanly-aborted rivals.
  EXPECT_GE(a.report.conflicts, 1u) << policy;
  EXPECT_GE(a.report.contention_aborts, 1u) << policy;
  std::size_t contested_rounds = 0;
  for (const GrantRound& r : a.rounds) {
    EXPECT_NE(r.winner_job, 0u) << policy;
    EXPECT_LE(r.winner_job, a.report.jobs.size()) << policy;
    ASSERT_GE(r.claims, 1u) << policy;
    // One winner, claims-1 denied rivals, and the winner never denied.
    EXPECT_EQ(r.loser_jobs.size(), r.claims - 1) << policy;
    for (std::uint64_t loser : r.loser_jobs)
      EXPECT_NE(loser, r.winner_job) << policy << " worker " << r.worker;
    if (r.claims >= 2) ++contested_rounds;
  }
  EXPECT_EQ(contested_rounds, a.report.conflicts) << policy;
  // Every tenant still finishes.
  for (const FleetReport::JobSummary& j : a.report.jobs)
    EXPECT_GT(j.report.throughput, 0.0) << policy << " job " << j.id;

  // Same fleet, same policy, fresh simulator: the arbitration must replay
  // identically — every round's worker, winner and claim count, and every
  // fleet counter.
  const ContestedOutcome b = run_contested_fleet(policy);
  ASSERT_EQ(a.rounds.size(), b.rounds.size()) << policy;
  for (std::size_t i = 0; i < a.rounds.size(); ++i) {
    EXPECT_EQ(a.rounds[i].worker, b.rounds[i].worker) << policy;
    EXPECT_EQ(a.rounds[i].winner_job, b.rounds[i].winner_job) << policy;
    EXPECT_EQ(a.rounds[i].claims, b.rounds[i].claims) << policy;
    EXPECT_EQ(a.rounds[i].loser_jobs, b.rounds[i].loser_jobs) << policy;
  }
  EXPECT_EQ(a.report.grants, b.report.grants) << policy;
  EXPECT_EQ(a.report.denials, b.report.denials) << policy;
  EXPECT_EQ(a.report.contention_aborts, b.report.contention_aborts) << policy;
  EXPECT_DOUBLE_EQ(a.report.fleet_throughput, b.report.fleet_throughput)
      << policy;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ContestedGpu,
                         ::testing::Values("greedy", "priority", "auction"));

TEST(ContestedGpu, PriorityArbiterNeverPicksALowerPriorityClaimant) {
  // Under the priority policy, every conflict round's winner must carry a
  // priority >= every denied rival's — the defining property of the policy,
  // checked against the real claim rounds the fleet produced.
  const ContestedOutcome o = run_contested_fleet("priority");
  std::size_t conflicted = 0;
  for (const GrantRound& r : o.rounds) {
    if (r.claims < 2) continue;
    ++conflicted;
    const double winner_priority = kContestedPriorities[r.winner_job - 1];
    for (std::uint64_t loser : r.loser_jobs)
      EXPECT_GE(winner_priority, kContestedPriorities[loser - 1])
          << "worker " << r.worker << ": job " << r.winner_job << " beat job "
          << loser;
  }
  EXPECT_GE(conflicted, 1u);
}

TEST(ContestedGpu, AuctionLedgerMatchesCheckedInGolden) {
  // Pins the job-scoped controller byte for byte: every job's planning
  // rounds, their candidates and outcomes, under the auction arbiter.
  std::string ledger;
  run_contested_fleet("auction", &ledger);
  // The scenario must keep covering what the golden is there to pin: rounds
  // tagged with their job, and a re-plan onto a changed worker population.
  EXPECT_NE(ledger.find(" job="), std::string::npos);
  EXPECT_NE(ledger.find("kind=replan"), std::string::npos);
  test_golden::expect_matches_golden("controller_fleet.ledger", ledger);
}

// ---------------------------------------------------------------------------
// --jobs-spec reader: grammar unit tests.
// ---------------------------------------------------------------------------

const char kBaseSpec[] =
    "# two-tenant fleet\n"
    "arbiter = priority\n"
    "claim-window = 0.05\n"
    "job = model=alexnet iterations=30 warmup=5 priority=2 workers=0..3\n"
    "job = model=resnet18 iterations=20 priority=1.5\n"
    "preempt = worker=2 at=1.5 for=2.0\n";

TEST(JobsSpec, ParsesFullGrammar) {
  const FleetSpec spec = cluster::parse_jobs_spec(kBaseSpec);
  EXPECT_EQ(spec.arbiter, "priority");
  EXPECT_DOUBLE_EQ(spec.claim_window, 0.05);
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].model, "alexnet");
  EXPECT_EQ(spec.jobs[0].iterations, 30u);
  EXPECT_EQ(spec.jobs[0].warmup, 5u);
  EXPECT_DOUBLE_EQ(spec.jobs[0].priority, 2.0);
  EXPECT_EQ(spec.jobs[0].workers,
            (std::vector<sim::WorkerId>{0, 1, 2, 3}));
  EXPECT_EQ(spec.jobs[1].model, "resnet18");
  EXPECT_TRUE(spec.jobs[1].workers.empty());  // filled by the default split
  ASSERT_EQ(spec.preempts.size(), 1u);
  EXPECT_EQ(spec.preempts[0].worker, 2u);
  EXPECT_DOUBLE_EQ(spec.preempts[0].at, 1.5);
  EXPECT_DOUBLE_EQ(spec.preempts[0].duration, 2.0);
}

TEST(JobsSpec, SemicolonsCommentsAndWorkerListForms) {
  const FleetSpec spec = cluster::parse_jobs_spec(
      "arbiter = auction; # inline comment\n"
      "job = model=vgg16 iterations=10 warmup=2 workers=3..5,1,3");
  EXPECT_EQ(spec.arbiter, "auction");
  ASSERT_EQ(spec.jobs.size(), 1u);
  // Ranges and comma lists merge, sorted and deduplicated.
  EXPECT_EQ(spec.jobs[0].workers,
            (std::vector<sim::WorkerId>{1, 3, 4, 5}));
}

TEST(JobsSpec, DiagnosticsNameTheOffendingLine) {
  const auto message_of = [](const std::string& text) -> std::string {
    try {
      (void)cluster::parse_jobs_spec(text);
    } catch (const contract_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(message_of("arbiter = greedy\narbiter = auction\n"
                       "job = model=alexnet")
                .find("line 2: duplicate 'arbiter'"),
            std::string::npos);
  EXPECT_NE(message_of("claim-window = 0.1\nclaim-window = 0.2\n"
                       "job = model=alexnet")
                .find("line 2: duplicate 'claim-window'"),
            std::string::npos);
  EXPECT_NE(message_of("job = model=alexnet\nbudget = 3")
                .find("line 2: unknown key 'budget'"),
            std::string::npos);
  EXPECT_NE(message_of("job = model=alexnet colour=red")
                .find("unknown job attribute 'colour'"),
            std::string::npos);
}

TEST(JobsSpec, RejectsMalformedInput) {
  EXPECT_THROW(cluster::parse_jobs_spec(""), contract_error);
  EXPECT_THROW(cluster::parse_jobs_spec("arbiter = greedy"), contract_error);
  EXPECT_THROW(cluster::parse_jobs_spec("arbiter = fifo\n"
                                        "job = model=alexnet"),
               contract_error);
  EXPECT_THROW(cluster::parse_jobs_spec("job = model=not-a-model"),
               contract_error);
  EXPECT_THROW(cluster::parse_jobs_spec("job = iterations=10"),
               contract_error);  // needs model=
  EXPECT_THROW(
      cluster::parse_jobs_spec("job = model=alexnet iterations=5 warmup=5"),
      contract_error);
  EXPECT_THROW(
      cluster::parse_jobs_spec("job = model=alexnet priority=0"),
      contract_error);
  EXPECT_THROW(
      cluster::parse_jobs_spec("job = model=alexnet workers=5..2"),
      contract_error);
  EXPECT_THROW(cluster::parse_jobs_spec("job = model=alexnet\n"
                                        "preempt = worker=1 at=2"),
               contract_error);  // preempt needs for=
  EXPECT_THROW(cluster::parse_jobs_spec("claim-window = -1\n"
                                        "job = model=alexnet"),
               contract_error);
  // Numbers are finite and integers are whole decimal tokens.
  for (const char* bad :
       {"claim-window = nan\njob = model=alexnet",
        "claim-window = inf\njob = model=alexnet",
        "job = model=alexnet\npreempt = worker=1 at=nan for=1",
        "job = model=alexnet\npreempt = worker=1 at=1 for=inf",
        "job = model=alexnet priority=nan",
        "job = model=alexnet iterations=1.2e1"})
    EXPECT_THROW(cluster::parse_jobs_spec(bad), contract_error) << bad;
}

TEST(JobsSpec, RejectsOversizedFleet) {
  std::string text;
  for (int i = 0; i < 65; ++i) text += "job = model=alexnet\n";
  EXPECT_THROW(cluster::parse_jobs_spec(text), contract_error);
}

TEST(JobsSpec, AssignDefaultWorkersSplitsTheUnclaimedPool) {
  FleetSpec spec = cluster::parse_jobs_spec(
      "job = model=alexnet workers=0\n"
      "job = model=alexnet\n"
      "job = model=alexnet\n");
  cluster::assign_default_workers(spec, 6);
  // Pool {1..5} splits 3/2 across the two unassigned jobs in order.
  EXPECT_EQ(spec.jobs[0].workers, (std::vector<sim::WorkerId>{0}));
  EXPECT_EQ(spec.jobs[1].workers, (std::vector<sim::WorkerId>{1, 2, 3}));
  EXPECT_EQ(spec.jobs[2].workers, (std::vector<sim::WorkerId>{4, 5}));
}

TEST(JobsSpec, AssignDefaultWorkersRejectsBadOwnership) {
  const auto parse = [](const char* text) {
    return cluster::parse_jobs_spec(text);
  };
  // Two jobs claiming the same worker.
  {
    FleetSpec spec = parse(
        "job = model=alexnet workers=0..2\n"
        "job = model=alexnet workers=2..4\n");
    try {
      cluster::assign_default_workers(spec, 6);
      FAIL() << "overlapping worker sets accepted";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "worker 2 is claimed by two jobs"),
                std::string::npos)
          << e.what();
    }
  }
  // Out-of-range explicit claim.
  {
    FleetSpec spec = parse("job = model=alexnet workers=9\n");
    EXPECT_THROW(cluster::assign_default_workers(spec, 6), contract_error);
  }
  // More unassigned jobs than free workers.
  {
    FleetSpec spec = parse(
        "job = model=alexnet workers=0..4\n"
        "job = model=alexnet\n"
        "job = model=alexnet\n");
    EXPECT_THROW(cluster::assign_default_workers(spec, 6), contract_error);
  }
  // Preemption targeting a worker the cluster does not have.
  {
    FleetSpec spec = parse(
        "job = model=alexnet\npreempt = worker=9 at=1 for=1\n");
    EXPECT_THROW(cluster::assign_default_workers(spec, 6), contract_error);
  }
}

TEST(JobsSpec, LoadResolvesInlineTextAndFiles) {
  EXPECT_EQ(cluster::load_jobs_spec("job = model=alexnet").jobs.size(), 1u);

  const std::string path = ::testing::TempDir() + "cotenancy_test.jobs";
  {
    std::ofstream out(path);
    out << kBaseSpec;
  }
  const FleetSpec spec = cluster::load_jobs_spec("@" + path);
  EXPECT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.arbiter, "priority");

  EXPECT_THROW(cluster::load_jobs_spec("@/nonexistent/fleet.jobs"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Fuzz-style reader robustness, mirroring the trace-reader harness
// (analysis_test.cpp): the reader's whole contract is "parse or throw
// contract_error" — never crash, hang or leak a foreign exception type.
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// True when the reader accepts the text, false when it rejects it with
/// contract_error. Any other exception propagates into gtest and fails the
/// test — that is the point of the harness.
bool parses_cleanly(const std::string& text) {
  try {
    (void)cluster::parse_jobs_spec(text);
    return true;
  } catch (const contract_error&) {
    return false;
  }
}

std::string flip_random_bytes(std::string text, Rng& rng) {
  if (text.empty()) return text;
  const std::int64_t flips = rng.uniform_int(1, 16);
  for (std::int64_t f = 0; f < flips; ++f) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
    text[pos] = static_cast<char>(rng.uniform_int(0, 255));
  }
  return text;
}

std::string truncate_random(const std::string& text, Rng& rng) {
  const auto cut = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
  return text.substr(0, cut);
}

class JobsSpecFuzz : public ::testing::TestWithParam<int> {};

// Whole-line prefixes of a valid spec either parse (enough lines survive to
// declare a job) or are rejected with a diagnostic — never anything else.
TEST_P(JobsSpecFuzz, WholeLinePrefixParsesOrRejects) {
  static const std::vector<std::string> lines = split_lines(kBaseSpec);
  ASSERT_FALSE(lines.empty());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 401u);
  const auto keep = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
  std::string text;
  for (std::size_t i = 0; i < keep; ++i) text += lines[i] + '\n';
  const bool ok = parses_cleanly(text);
  // A prefix that kept any job line must parse; one that kept none must be
  // rejected ("declares no jobs").
  EXPECT_EQ(ok, keep >= 4);
}

// Two valid specs' lines merged in arbitrary order (each stream's own order
// preserved) must land in parse-or-reject: the merge can double a scalar
// key, which is a diagnostic, not a crash.
TEST_P(JobsSpecFuzz, InterleavedSpecStreamsParseOrReject) {
  static const std::vector<std::string> ours = split_lines(kBaseSpec);
  static const std::vector<std::string> theirs = split_lines(
      "claim-window = 0.2\n"
      "job = model=vgg16 iterations=8 warmup=1 workers=4,5\n"
      "preempt = worker=0 at=0.5 for=0.5\n");
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 503u);
  std::string text;
  std::size_t i = 0, j = 0;
  while (i < ours.size() || j < theirs.size()) {
    const bool take_ours =
        j >= theirs.size() || (i < ours.size() && rng.chance(0.5));
    text += (take_ours ? ours[i++] : theirs[j++]) + '\n';
  }
  (void)parses_cleanly(text);  // either outcome is fine; escapes are not
}

// Arbitrary corruption — byte-level truncation (usually mid-line), random
// byte flips, and both at once — must always land in parse-or-reject.
TEST_P(JobsSpecFuzz, ArbitraryCorruptionParsesOrRejects) {
  static const std::string base(kBaseSpec);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 601u);
  std::string text;
  switch (GetParam() % 3) {
    case 0:
      text = truncate_random(base, rng);
      break;
    case 1:
      text = flip_random_bytes(base, rng);
      break;
    default:
      text = flip_random_bytes(truncate_random(base, rng), rng);
      break;
  }
  (void)parses_cleanly(text);
}

INSTANTIATE_TEST_SUITE_P(SeededCorruptions, JobsSpecFuzz,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace autopipe
