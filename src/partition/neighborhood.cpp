#include "partition/neighborhood.hpp"

#include <algorithm>
#include <optional>

#include "common/expect.hpp"
#include "partition/analytic_eval.hpp"

namespace autopipe::partition {

namespace {

/// The stage a move touches besides `move.stage`.
std::size_t partner(const Move& move) {
  return move.kind == Move::Kind::kShift ? move.stage + 1 : move.to;
}

}  // namespace

void enumerate_moves(std::span<const StageAssignment> stages,
                     std::vector<Move>& out) {
  out.clear();
  const auto layers = [&](std::size_t s) {
    return static_cast<std::ptrdiff_t>(stages[s].num_layers());
  };
  // 1) Boundary-layer moves between adjacent stages: k trailing layers of s
  // into s+1 (s keeps at least one), then k leading layers of s+1 into s.
  for (std::size_t s = 0; s + 1 < stages.size(); ++s) {
    for (std::ptrdiff_t k = 1; k < layers(s); ++k)
      out.push_back(Move{Move::Kind::kShift, s, -k});
    for (std::ptrdiff_t k = 1; k < layers(s + 1); ++k)
      out.push_back(Move{Move::Kind::kShift, s, k});
  }
  // 2) Re-home one worker from a replicated stage to an adjacent stage.
  for (std::size_t s = 0; s < stages.size(); ++s) {
    if (stages[s].replication() < 2) continue;
    if (s > 0) out.push_back(Move{Move::Kind::kRehome, s, 0, s - 1});
    if (s + 1 < stages.size())
      out.push_back(Move{Move::Kind::kRehome, s, 0, s + 1});
  }
}

void apply_move(std::span<StageAssignment> stages, const Move& move) {
  StageAssignment& from = stages[move.stage];
  if (move.kind == Move::Kind::kShift) {
    // Unsigned wrap-around adds a negative delta exactly.
    const auto delta = static_cast<std::size_t>(move.delta);
    from.last_layer += delta;
    stages[move.stage + 1].first_layer += delta;
    return;
  }
  // Moving the last-listed worker keeps candidates canonical.
  std::vector<sim::WorkerId>& to = stages[move.to].workers;
  to.push_back(from.workers.back());
  from.workers.pop_back();
  std::sort(to.begin(), to.end());
}

void undo_move(std::span<StageAssignment> stages,
               std::span<const StageAssignment> original, const Move& move) {
  // Copy-assignment reuses the worker lists' buffers.
  stages[move.stage] = original[move.stage];
  stages[partner(move)] = original[partner(move)];
}

Partition apply_move(const Partition& current, const Move& move) {
  AUTOPIPE_EXPECT(move.stage < current.num_stages() &&
                  partner(move) < current.num_stages() &&
                  partner(move) != move.stage);
  std::vector<StageAssignment> stages = current.stages();
  apply_move(stages, move);
  return Partition(std::move(stages), current.num_layers());
}

std::vector<Candidate> two_worker_candidates(const Partition& current) {
  std::vector<Move> moves;
  enumerate_moves(current.stages(), moves);
  std::vector<Candidate> out;
  out.reserve(moves.size());
  for (const Move& move : moves) {
    Partition candidate = apply_move(current, move);
    auto changed = current.changed_workers(candidate);
    out.push_back(Candidate{std::move(candidate), std::move(changed)});
  }
  return out;
}

Descent descend(const models::ModelSpec& model, const Partition& start,
                const EnvironmentView& env, std::size_t batch,
                std::size_t max_rounds) {
  Descent out{start, analytic_batch_time(model, start, env, batch)};
  std::vector<Move> moves;
  std::vector<StageAssignment> scratch;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto& stages = out.partition.stages();
    enumerate_moves(stages, moves);
    scratch = stages;
    std::optional<Move> step;
    for (const Move& move : moves) {
      apply_move(scratch, move);
      const Seconds t = analytic_batch_time(model, scratch, env, batch);
      undo_move(scratch, stages, move);
      if (t < out.batch_time * 0.999) {
        out.batch_time = t;
        step = move;
      }
    }
    if (!step) break;
    out.partition = apply_move(out.partition, *step);
  }
  return out;
}

}  // namespace autopipe::partition
