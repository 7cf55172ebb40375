#include "common/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <ostream>
#include <set>

#include "common/max_min.hpp"
#include "common/text_writer.hpp"

namespace autopipe::trace {

const char* category_name(Category category) {
  switch (category) {
    case Category::kCompute: return "compute";
    case Category::kComm: return "comm";
    case Category::kSwitch: return "switch";
    case Category::kControl: return "control";
    case Category::kResource: return "resource";
    case Category::kMark: return "mark";
    case Category::kFault: return "fault";
  }
  return "unknown";
}

std::string format_double(double value) {
  char buf[kMaxGeneralChars];
  return std::string(buf, write_general(buf, value));
}

Field::operator Arg() const {
  Arg decoded{std::string(key), {}};
  switch (kind) {
    case Kind::kInt: decoded.value = std::to_string(i); break;
    case Kind::kUint: decoded.value = std::to_string(u); break;
    case Kind::kDouble: decoded.value = format_double(d); break;
    case Kind::kString: decoded.value = std::string(text); break;
  }
  return decoded;
}

const std::string* Event::find_arg(const std::string& key) const {
  for (const Arg& a : args) {
    if (a.key == key) return &a.value;
  }
  return nullptr;
}

#if AUTOPIPE_TRACING

std::uint32_t TraceRecorder::intern(std::string_view text) {
  if (slots_.size() < 2 * (strings_.size() + 1)) {
    rehash(std::max<std::size_t>(64, 2 * slots_.size()));
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(text) & mask;
  for (; slots_[slot] != 0; slot = (slot + 1) & mask) {
    if (strings_[slots_[slot] - 1] == text) return slots_[slot] - 1;
  }
  // First sighting: copy the bytes into the current chunk, starting a new
  // one when they do not fit.
  constexpr std::size_t kChunkBytes = 4096;
  if (chunks_.empty() ||
      static_cast<std::size_t>(chunk_end_ - chunk_next_) < text.size()) {
    const std::size_t bytes = std::max(kChunkBytes, text.size());
    chunk_next_ = chunks_.emplace_back(new char[bytes]).get();
    chunk_end_ = chunk_next_ + bytes;
  }
  std::copy(text.begin(), text.end(), chunk_next_);
  strings_.emplace_back(chunk_next_, text.size());
  chunk_next_ += text.size();
  slots_[slot] = static_cast<std::uint32_t>(strings_.size());
  return slots_[slot] - 1;
}

void TraceRecorder::rehash(std::size_t slots) {
  slots_.assign(slots, 0);
  const std::size_t mask = slots - 1;
  for (std::size_t id = 0; id < strings_.size(); ++id) {
    std::size_t slot = std::hash<std::string_view>{}(strings_[id]) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<std::uint32_t>(id + 1);
  }
}

Field TraceRecorder::load(const StoredField& stored) const {
  Field f;
  f.key = text(stored.key);
  f.kind = stored.kind;
  if (stored.kind == Field::Kind::kString) {
    f.text = text(stored.string);
  } else {
    std::memcpy(&f.u, &stored.number, sizeof f.u);
  }
  return f;
}

TraceRecorder::Record& TraceRecorder::append_record() {
  const std::size_t chunk = size_ / kRecordsPerChunk;
  if (chunk == record_chunks_.size()) {
    record_chunks_.push_back(
        std::make_unique_for_overwrite<Record[]>(kRecordsPerChunk));
  }
  return record_chunks_[chunk][size_++ % kRecordsPerChunk];
}

std::uint32_t TraceRecorder::append_fields(std::size_t count) {
  std::size_t first = fields_end_;
  if (first % kFieldsPerChunk + count > kFieldsPerChunk)
    first += kFieldsPerChunk - first % kFieldsPerChunk;
  if (count > 0 && first / kFieldsPerChunk == field_chunks_.size()) {
    field_chunks_.push_back(
        std::make_unique_for_overwrite<StoredField[]>(kFieldsPerChunk));
  }
  fields_end_ = first + count;
  return static_cast<std::uint32_t>(first);
}

std::uint64_t TraceRecorder::record(Category category, char phase,
                                    std::string_view name, double ts,
                                    double span, std::uint64_t id, int pid,
                                    int tid, const Fields& fields,
                                    std::uint64_t cause) {
  const std::uint64_t eid = next_eid_++;
  cause = cause == kAmbient ? current_cause_ : cause;
  if (cause == eid) cause = 0;  // never self-caused
  current_cause_ = eid;
  const std::uint32_t first_field = append_fields(fields.size());
  append_record() = {.ts = ts, .span = span, .id = id, .eid = eid,
                     .cause = cause, .name = intern(name),
                     .first_field = first_field, .pid = pid, .tid = tid,
                     .category = category, .phase = phase,
                     .field_count = static_cast<std::uint8_t>(fields.size())};
  StoredField* stored = fields.size() ? field_at(first_field) : nullptr;
  for (const Field& f : fields) {
    stored->key = intern(f.key);
    stored->kind = f.kind;
    if (f.kind == Field::Kind::kString) {
      stored->string = intern(f.text);
    } else {
      std::memcpy(&stored->number, &f.u, sizeof stored->number);
    }
    ++stored;
  }
  return eid;
}

void TraceRecorder::counter(Category category, std::string_view name,
                            double ts, double value, int pid) {
  if (!enabled_) return;
  append_record() = {.ts = ts, .span = value, .id = 0, .eid = 0, .cause = 0,
                     .name = intern(name), .first_field = 0, .pid = pid,
                     .tid = 0, .category = category, .phase = 'C',
                     .field_count = 0};
}

void TraceRecorder::clear() {
  size_ = 0;
  fields_end_ = 0;
  strings_.clear();
  chunks_.clear();
  slots_.clear();
  next_eid_ = 1;
  current_cause_ = 0;
}

std::vector<Event> TraceRecorder::events() const {
  std::vector<Event> out;
  out.reserve(size_);
  for_each_record([&](const Record& r) {
    Event& ev = out.emplace_back();
    ev.category = r.category;
    ev.phase = r.phase;
    ev.name = text(r.name);
    ev.ts = r.ts;
    if (r.phase == 'X') ev.dur = r.span;
    if (r.phase == 'C') ev.value = r.span;
    ev.id = r.id;
    ev.pid = r.pid;
    ev.tid = r.tid;
    ev.eid = r.eid;
    ev.cause = r.cause;
    ev.args.reserve(r.field_count);
    for (const StoredField& f : fields_of(r)) ev.args.push_back(load(f));
  });
  return out;
}

namespace {

/// A typed value as both sinks print it: integers as std::to_string does,
/// doubles as "%.9g", strings verbatim.
void put_value(TextWriter& out, const Field& f) {
  switch (f.kind) {
    case Field::Kind::kInt: out << f.i; break;
    case Field::Kind::kUint: out << f.u; break;
    case Field::Kind::kDouble: out << General{f.d}; break;
    case Field::Kind::kString: out << f.text; break;
  }
}

/// `s` as a quoted JSON string.
void put_json_string(TextWriter& out, std::string_view s) {
  out << '"';
  std::size_t plain = 0;  // start of the run not yet written
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const char* escape = nullptr;
    switch (c) {
      case '"': escape = "\\\""; break;
      case '\\': escape = "\\\\"; break;
      case '\n': escape = "\\n"; break;
      case '\t': escape = "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out << s.substr(plain, i - plain);
    if (escape != nullptr) {
      out << escape;
    } else {
      constexpr char kHex[] = "0123456789abcdef";
      out << "\\u00" << kHex[c >> 4] << kHex[c & 0xf];
    }
    plain = i + 1;
  }
  out << s.substr(plain) << '"';
}

/// Chrome timestamps are microseconds; keep sub-microsecond digits.
Fixed micros(double seconds) { return Fixed{seconds * 1e6, 3}; }

}  // namespace

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  TextWriter out(os);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // Name the synthetic process rows so the viewer is self-explanatory.
  std::set<int> worker_pids;
  for_each_record([&](const Record& r) {
    if (r.pid < kPidNetwork) worker_pids.insert(r.pid);
  });
  const char* separator = "\n";
  auto metadata = [&](int pid) -> TextWriter& {
    out << separator << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
        << pid << ",\"tid\":0,\"args\":{\"name\":\"";
    separator = ",\n";
    return out;
  };
  metadata(kPidNetwork) << "network\"}}";
  metadata(kPidControl) << "control\"}}";
  metadata(kPidResource) << "resources\"}}";
  for (int pid : worker_pids) metadata(pid) << "worker " << pid << "\"}}";

  for_each_record([&](const Record& r) {
    out << ",\n{\"name\":";
    put_json_string(out, text(r.name));
    out << ",\"cat\":\"" << category_name(r.category) << "\",\"ph\":\""
        << r.phase << "\",\"ts\":" << micros(r.ts);
    if (r.phase == 'X') out << ",\"dur\":" << micros(r.span);
    if (r.phase == 'b' || r.phase == 'e') out << ",\"id\":" << r.id;
    out << ",\"pid\":" << r.pid << ",\"tid\":" << r.tid;
    if (r.phase == 'C') {
      out << ",\"args\":{\"value\":" << General{r.span} << "}";
    } else if (r.field_count != 0) {
      // Every value is a JSON string, numbers included.
      const char* separator = ",\"args\":{";
      for (const StoredField& stored : fields_of(r)) {
        const Field f = load(stored);
        out << separator;
        separator = ",";
        put_json_string(out, f.key);
        out << ':';
        if (f.kind == Field::Kind::kString) {
          put_json_string(out, f.text);
        } else {
          out << '"';
          put_value(out, f);
          out << '"';
        }
      }
      out << '}';
    }
    out << '}';
  });

  // Each resource's load track. The flow network records no load values:
  // they follow from its cap: counters and flow records, which it records in
  // simulated-time order, so replaying those gives them back.
  std::vector<std::string> load_names;
  common::LoadReplay replay([&](double ts, std::size_t resource,
                                double value) {
    while (load_names.size() <= resource) {
      load_names.push_back("load:" +
                           replay.resource_name(load_names.size()));
    }
    out << ",\n{\"name\":";
    put_json_string(out, load_names[resource]);
    out << ",\"cat\":\"" << category_name(Category::kComm)
        << "\",\"ph\":\"C\",\"ts\":" << micros(ts)
        << ",\"pid\":" << kPidNetwork << ",\"tid\":0,\"args\":{\"value\":"
        << General{value} << "}}";
  });
  for_each_record([&](const Record& r) {
    const std::string_view name = text(r.name);
    if (r.phase == 'C' && name.starts_with("cap:")) {
      replay.capacity(r.ts, name.substr(4), r.span);
    } else if (r.phase == 'b' && name == "flow") {
      std::string_view path;
      for (const StoredField& stored : fields_of(r)) {
        const Field f = load(stored);
        if (f.key == "path" && f.kind == Field::Kind::kString) path = f.text;
      }
      replay.begin_flow(r.ts, r.id, path);
    } else if (r.phase == 'e' && name == "flow") {
      replay.end_flow(r.ts, r.id);
    }
  });
  replay.finish();

  // Causal edges as Chrome flow-event pairs: an 's' (start) anchored at the
  // causing event's end and an 'f' (finish, bp:"e") anchored at the caused
  // event's start, paired by the child's eid. eids are assigned densely over
  // non-counter events, so an index maps cause ids back to their events.
  std::vector<const Record*> by_eid;
  for_each_record([&](const Record& r) {
    if (r.eid != 0) {
      if (by_eid.size() < r.eid) by_eid.resize(r.eid, nullptr);
      by_eid[r.eid - 1] = &r;
    }
  });
  for_each_record([&](const Record& r) {
    if (r.cause == 0 || r.cause > by_eid.size()) return;
    const Record* parent = by_eid[r.cause - 1];
    if (parent == nullptr) return;
    const double parent_end =
        parent->phase == 'X' ? parent->ts + parent->span : parent->ts;
    out << ",\n{\"name\":\"causal\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":"
        << r.eid << ",\"ts\":" << micros(parent_end)
        << ",\"pid\":" << parent->pid << ",\"tid\":" << parent->tid << "},"
        << "\n{\"name\":\"causal\",\"cat\":\"causal\",\"ph\":\"f\","
        << "\"bp\":\"e\",\"id\":" << r.eid << ",\"ts\":" << micros(r.ts)
        << ",\"pid\":" << r.pid << ",\"tid\":" << r.tid << "}";
  });
  out << "\n]}\n";
}

void TraceRecorder::write_text(std::ostream& os) const {
  TextWriter out(os);
  // Most records repeat the previous record's timestamp (a callback's
  // records all carry its instant), so each run of equal timestamps is
  // formatted once. The key is the bits, not ==: -0.0 after 0.0 prints its
  // own text.
  char ts_text[kMaxFixedChars];
  std::size_t ts_size = 0;  // 0 until the first record
  std::uint64_t ts_bits = 0;
  for_each_record([&](const Record& r) {
    const auto bits = std::bit_cast<std::uint64_t>(r.ts);
    if (ts_size == 0 || bits != ts_bits) {
      ts_bits = bits;
      ts_size = static_cast<std::size_t>(write_fixed(ts_text, r.ts, 9) -
                                         ts_text);
    }
    out << std::string_view(ts_text, ts_size) << ' '
        << category_name(r.category) << ' ' << r.phase << ' ' << text(r.name)
        << " pid=" << r.pid << " tid=" << r.tid;
    if (r.phase == 'X') out << " dur=" << Fixed{r.span, 9};
    if (r.phase == 'b' || r.phase == 'e') out << " id=" << r.id;
    if (r.phase == 'C') out << " value=" << General{r.span};
    if (r.eid != 0) out << " eid=" << r.eid;
    if (r.cause != 0) out << " cause=" << r.cause;
    for (const StoredField& stored : fields_of(r)) {
      const Field f = load(stored);
      out << ' ' << f.key << '=';
      put_value(out, f);
    }
    out << '\n';
  });
}

#else  // !AUTOPIPE_TRACING

void TraceRecorder::write_chrome_json(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n";
}

#endif

}  // namespace autopipe::trace
