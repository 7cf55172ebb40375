// Pipeline schedule families implemented by the executor. §2.1's taxonomy:
// asynchronous (PipeDream 1F1B with weight stashing; PipeDream-2BW with
// double-buffered weights and gradient coalescing) and synchronous (GPipe
// all-forward-then-all-backward; DAPPLE early-backward with flush; Chimera
// bidirectional pipelines).
#pragma once

#include <string>

namespace autopipe::pipeline {

enum class ScheduleMode {
  kAsync1F1B,  ///< PipeDream: continuous 1F1B, weight stashing, no flush
  kGPipe,      ///< all micro-batch FPs, then all BPs, then update (flush)
  kDapple,     ///< early backward (1F1B inside the mini-batch) + flush
  kChimera,    ///< two bidirectional DAPPLE streams sharing the workers
  kTwoBW,      ///< async 1F1B, 2 weight versions, coalesced gradient sync
};

const char* to_string(ScheduleMode mode);

/// The mode behind a CLI/sweep-spec name: 1f1b, gpipe, dapple, chimera or
/// 2bw. Throws contract_error on any other name.
ScheduleMode schedule_by_name(const std::string& name);

/// Whether the schedule flushes (synchronous weight-update semantics).
bool is_synchronous(ScheduleMode mode);

}  // namespace autopipe::pipeline
