// AutoPipe's candidate generator (§4.2 "New worker partition"): rather than
// re-solving the full partitioning problem, enumerate partitions that differ
// from the current one in the tasks of as few workers as possible —
// boundary-layer moves between adjacent stages and single-worker
// re-homing between stages. The enumeration is O(L^2) in the layer count,
// and each candidate can be adopted with a two-worker fine-grained switch.
//
// A candidate is enumerated as a Move — a few integers — so a planner can
// score it on a scratch copy of the stages (apply, score, undo) and build
// the validated Partition only for the move it picks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "models/model.hpp"
#include "partition/environment.hpp"
#include "partition/partition.hpp"

namespace autopipe::partition {

/// One two-worker change to a partition's stages.
struct Move {
  enum class Kind : std::uint8_t {
    /// The boundary after `stage` moves by `delta` layers: a negative delta
    /// hands the stage's -delta trailing layers to stage+1, a positive one
    /// takes the delta leading layers of stage+1.
    kShift,
    /// The last-listed (highest-id) worker of `stage` joins stage `to`,
    /// whose worker list is then sorted.
    kRehome,
  };
  Kind kind = Kind::kShift;
  std::size_t stage = 0;
  std::ptrdiff_t delta = 0;  ///< kShift only
  std::size_t to = 0;        ///< kRehome only
  bool operator==(const Move&) const = default;
};

/// Every two-worker move of `stages`, in candidate order, into `out`
/// (cleared first, so a caller can reuse its buffer):
///   * for each adjacent pair (s, s+1): k = 1.. trailing layers of s into
///     s+1 while s keeps a layer, then k = 1.. leading layers of s+1 into s
///     while s+1 keeps one;
///   * for each replicated stage s: its last worker to s-1, then to s+1.
/// The unchanged partition is not a move. A move never changes the set of
/// workers the partition uses.
void enumerate_moves(std::span<const StageAssignment> stages,
                     std::vector<Move>& out);

/// Apply `move` to `stages` in place. Only the two stages it names change.
void apply_move(std::span<StageAssignment> stages, const Move& move);

/// Undo apply_move: copy the two stages `move` touched back from
/// `original`, the stages it was applied to. Restores `stages` exactly and,
/// once their buffers have grown, without allocating.
void undo_move(std::span<StageAssignment> stages,
               std::span<const StageAssignment> original, const Move& move);

/// Materialize `move` through the validating Partition constructor.
Partition apply_move(const Partition& current, const Move& move);

struct Candidate {
  Partition partition;
  /// Workers whose layer assignment differs from the current partition —
  /// the set that must migrate state on a switch.
  std::vector<sim::WorkerId> changed_workers;
};

/// Every move of `current`, materialized, in enumerate_moves order. For
/// callers off the planning hot path; planning rounds score moves in place.
std::vector<Candidate> two_worker_candidates(const Partition& current);

/// Where descend() stopped.
struct Descent {
  Partition partition;
  Seconds batch_time;  ///< analytic_batch_time of `partition`
};

/// Hill-climb from `start` under the integrated model: each round scores
/// every move and steps to the last one that beat the running best batch
/// time by 0.1%, for at most `max_rounds` rounds or until none does.
Descent descend(const models::ModelSpec& model, const Partition& start,
                const EnvironmentView& env, std::size_t batch,
                std::size_t max_rounds);

}  // namespace autopipe::partition
