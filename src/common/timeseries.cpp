#include "common/timeseries.hpp"

#include <set>

#include "common/expect.hpp"
#include "common/metrics.hpp"
#include "common/text_writer.hpp"

namespace autopipe::trace {

void TimeSeriesSampler::configure(double interval_seconds) {
  AUTOPIPE_EXPECT_MSG(interval_seconds > 0.0,
                      "timeseries interval must be positive, got "
                          << interval_seconds);
  interval_ = interval_seconds;
  next_index_ = 0;
  finalized_ = false;
  samples_.clear();
}

void TimeSeriesSampler::emit(double time, const MetricsRegistry& metrics) {
  samples_.push_back(Sample{time, metrics.flattened()});
}

void TimeSeriesSampler::advance_to(double t, const MetricsRegistry& metrics) {
  if (!enabled()) return;
  // Boundary positions are computed as index * interval (never by repeated
  // addition), so the grid is identical no matter how the calls interleave.
  while (static_cast<double>(next_index_) * interval_ <= t) {
    emit(static_cast<double>(next_index_) * interval_, metrics);
    ++next_index_;
  }
}

void TimeSeriesSampler::finalize(double now, const MetricsRegistry& metrics) {
  if (!enabled() || finalized_) return;
  finalized_ = true;
  advance_to(now, metrics);
  // The run may end between boundaries; close with the complete state.
  if (samples_.empty() || samples_.back().time < now) emit(now, metrics);
}

void TimeSeriesSampler::write_text(std::ostream& os) const {
  std::set<std::string> columns;
  for (const Sample& s : samples_)
    for (const auto& [name, value] : s.values) columns.insert(name);

  TextWriter out(os);
  out << "autopipe-ts-v1 interval=" << General{interval_}
      << " rows=" << samples_.size() << " columns=" << columns.size() + 1
      << "\n";
  out << "col time\n";
  for (const std::string& name : columns) out << "col " << name << "\n";
  for (const Sample& s : samples_) {
    out << General{s.time};
    for (const std::string& name : columns) {
      const auto it = s.values.find(name);
      out << ' ' << General{it == s.values.end() ? 0.0 : it->second};
    }
    out << '\n';
  }
}

}  // namespace autopipe::trace
