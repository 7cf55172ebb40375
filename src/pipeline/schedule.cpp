#include "pipeline/schedule.hpp"

#include "common/expect.hpp"

namespace autopipe::pipeline {

const char* to_string(ScheduleMode mode) {
  switch (mode) {
    case ScheduleMode::kAsync1F1B: return "PipeDream-1F1B";
    case ScheduleMode::kGPipe: return "GPipe";
    case ScheduleMode::kDapple: return "DAPPLE";
    case ScheduleMode::kChimera: return "Chimera";
    case ScheduleMode::kTwoBW: return "PipeDream-2BW";
  }
  return "?";
}

ScheduleMode schedule_by_name(const std::string& name) {
  if (name == "1f1b") return ScheduleMode::kAsync1F1B;
  if (name == "gpipe") return ScheduleMode::kGPipe;
  if (name == "dapple") return ScheduleMode::kDapple;
  if (name == "chimera") return ScheduleMode::kChimera;
  if (name == "2bw") return ScheduleMode::kTwoBW;
  throw contract_error("unknown schedule: " + name);
}

bool is_synchronous(ScheduleMode mode) {
  switch (mode) {
    case ScheduleMode::kGPipe:
    case ScheduleMode::kDapple:
    case ScheduleMode::kChimera:
      return true;
    case ScheduleMode::kAsync1F1B:
    case ScheduleMode::kTwoBW:
      return false;
  }
  return false;
}

}  // namespace autopipe::pipeline
