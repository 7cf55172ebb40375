// Event tracing for the simulator and everything that runs on it.
//
// A TraceRecorder collects timestamped events — spans ('X' complete events),
// instants ('i'), counters ('C') and async begin/end pairs ('b'/'e') — each
// stamped with a category and a pid/tid pair identifying the emitting
// worker/stage (or one of the synthetic rows below). Timestamps are
// *simulated* seconds, passed explicitly by the caller, so the recorder has
// no dependency on the Simulator; the Simulator owns the recorder instance
// and every subsystem reaches it through `simulator().tracer()`.
//
// Two sinks:
//  * write_chrome_json — Chrome trace_event JSON, loadable in
//    chrome://tracing or https://ui.perfetto.dev (timestamps converted to
//    microseconds, as the format requires). After the records it writes
//    each network resource's `load:` counter track, derived from the
//    `cap:` counters and flow records (common/max_min.hpp).
//  * write_text — one line per event with fixed formatting, byte-identical
//    across runs of the same scenario; the golden-trace tests diff it.
//
// Causality: every non-counter event is assigned a monotonically increasing
// eid at record time, and carries the eid of the event that caused it
// (`cause`). Causes default to the recorder's *ambient* cause — the last
// event recorded, or whatever the Simulator restored from the popped event
// before running its callback — so causal chains thread through the event
// queue without call-site changes; sites with a more precise dependency
// (previous-stage op, switch-phase barrier, the link_down an up pairs with)
// pass an explicit cause. The text sink emits `eid=`/`cause=` fields and the
// Chrome sink renders each edge as a flow-event pair (ph "s"/"f").
//
// Storage: recording formats nothing. Each event is one trivially copyable
// 64-byte record (category, phase, interned name id, pid/tid, ts,
// dur-or-value, async id, eid, cause and a range of fields), and its
// arguments are typed fields (int64, uint64, double or interned string).
// Records and fields live in fixed-size chunks: growing allocates one chunk
// and never moves what is stored, so no recording call copies the trace so
// far. A record's fields are contiguous within one chunk. Names, keys and
// string values are interned once per recorder. Only the sinks format,
// straight into a TextWriter buffer; events() decodes the records into the
// analysis-side Event form.
//
// Overhead discipline: recording methods no-op unless set_enabled(true) was
// called, and callers guard argument construction behind `enabled()`. With
// the CMake option AUTOPIPE_TRACING=OFF the recorder compiles down to inline
// empty stubs and `enabled()` becomes a constant false, so every guarded
// call site is dead code.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/expect.hpp"

#ifndef AUTOPIPE_TRACING
#define AUTOPIPE_TRACING 1
#endif

namespace autopipe::trace {

enum class Category {
  kCompute,
  kComm,
  kSwitch,
  kControl,
  kResource,
  kMark,
  kFault,  ///< injected faults and the recovery transitions they trigger
};

/// Short lowercase name used in both sinks ("compute", "comm", ...).
const char* category_name(Category category);

// Synthetic pids for rows that do not belong to a single worker. Worker pids
// are the worker ids themselves (always < 1000 in any plausible cluster).
inline constexpr int kPidNetwork = 1000;   ///< flow network rows
inline constexpr int kPidControl = 1001;   ///< controller / switch engine
inline constexpr int kPidResource = 1002;  ///< cluster resource events

/// Deterministic shortest-round-trip-ish formatting ("%.9g") used for every
/// double that lands in a trace line.
std::string format_double(double value);

/// A decoded event argument: the key and the value as the text sink writes
/// it (and the reader parses it back).
struct Arg {
  std::string key;
  std::string value;
};
using Args = std::vector<Arg>;

/// Sentinel `cause` argument meaning "use the recorder's ambient cause" —
/// the id of the most recently recorded event on this recorder, which the
/// Simulator restores from the popped event before running its callback.
/// Pass 0 to record an event with no causal parent.
inline constexpr std::uint64_t kAmbient = ~std::uint64_t{0};

/// A typed event argument as a recording call passes it. It views its key
/// and string value, so it lives only for the call it is built for.
struct Field {
  enum class Kind : std::uint8_t { kInt, kUint, kDouble, kString };

  std::string_view key;
  std::string_view text;  ///< kString only
  union {
    std::int64_t i = 0;
    std::uint64_t u;
    double d;
  };
  Kind kind = Kind::kInt;

  /// The decoded form, formatted as the text sink formats it — for code
  /// that builds analysis Events directly.
  operator Arg() const;
};

/// Build a Field from a string, integer or floating-point value; nothing is
/// formatted until a sink writes it.
template <typename T>
Field arg(std::string_view key, const T& value) {
  using V = std::decay_t<T>;
  Field f;
  f.key = key;
  if constexpr (std::is_floating_point_v<V>) {
    f.kind = Field::Kind::kDouble;
    f.d = static_cast<double>(value);
  } else if constexpr (std::is_integral_v<V> && std::is_signed_v<V>) {
    f.kind = Field::Kind::kInt;
    f.i = static_cast<std::int64_t>(value);
  } else if constexpr (std::is_integral_v<V>) {
    f.kind = Field::Kind::kUint;
    f.u = static_cast<std::uint64_t>(value);
  } else {
    f.kind = Field::Kind::kString;
    f.text = std::string_view(value);
  }
  return f;
}

/// The bounded inline argument list of one recording call.
class Fields {
 public:
  static constexpr std::size_t kCapacity = 8;

  Fields() = default;
  Fields(std::initializer_list<Field> fields) {
    for (const Field& f : fields) push_back(f);
  }
  void push_back(const Field& field) {
    AUTOPIPE_EXPECT(size_ < kCapacity);
    items_[size_++] = field;
  }
  const Field* begin() const { return items_; }
  const Field* end() const { return items_ + size_; }
  std::size_t size() const { return size_; }

 private:
  Field items_[kCapacity];
  std::size_t size_ = 0;
};

/// A decoded event: what the text reader produces and the analyzers
/// consume.
struct Event {
  Category category = Category::kMark;
  char phase = 'i';  // 'X' complete, 'i' instant, 'C' counter, 'b'/'e' async
  std::string name;
  double ts = 0.0;     ///< simulated seconds (event start for 'X')
  double dur = 0.0;    ///< 'X' only: span length in seconds
  double value = 0.0;  ///< 'C' only
  std::uint64_t id = 0;  ///< 'b'/'e' only: pairing id
  int pid = 0;
  int tid = 0;
  std::uint64_t eid = 0;    ///< causal event id, assigned at record time
  std::uint64_t cause = 0;  ///< eid of the event that caused this one, 0 = root
  Args args;

  /// Value of the named arg, or nullptr when absent.
  const std::string* find_arg(const std::string& key) const;
};

class TraceRecorder {
 public:
#if AUTOPIPE_TRACING
  /// Records and their fields are stored in chunks of this many (256 KiB
  /// each).
  static constexpr std::size_t kRecordsPerChunk = 4096;
  static constexpr std::size_t kFieldsPerChunk = 16384;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// A finished span: [ts_begin, ts_end] on row (pid, tid). Returns the
  /// causal id assigned to the event (0 when disabled). `cause` is the eid
  /// of the causal parent; kAmbient picks up the recorder's ambient cause.
  std::uint64_t complete(Category category, std::string_view name,
                         double ts_begin, double ts_end, int pid, int tid,
                         const Fields& fields = {},
                         std::uint64_t cause = kAmbient) {
    return enabled_ ? record(category, 'X', name, ts_begin, ts_end - ts_begin,
                             0, pid, tid, fields, cause)
                    : 0;
  }
  /// A point event.
  std::uint64_t instant(Category category, std::string_view name, double ts,
                        int pid, int tid, const Fields& fields = {},
                        std::uint64_t cause = kAmbient) {
    return enabled_ ? record(category, 'i', name, ts, 0.0, 0, pid, tid,
                             fields, cause)
                    : 0;
  }
  /// A sampled counter value. Counters carry no causal id and do not
  /// disturb the ambient cause.
  void counter(Category category, std::string_view name, double ts,
               double value, int pid = kPidNetwork);
  /// Async span delimiters paired by (name, id) — used for flows, whose
  /// lifetimes overlap arbitrarily.
  std::uint64_t async_begin(Category category, std::string_view name,
                            std::uint64_t id, double ts,
                            const Fields& fields = {},
                            std::uint64_t cause = kAmbient) {
    return enabled_ ? record(category, 'b', name, ts, 0.0, id, kPidNetwork, 0,
                             fields, cause)
                    : 0;
  }
  std::uint64_t async_end(Category category, std::string_view name,
                          std::uint64_t id, double ts,
                          const Fields& fields = {},
                          std::uint64_t cause = kAmbient) {
    return enabled_ ? record(category, 'e', name, ts, 0.0, id, kPidNetwork, 0,
                             fields, cause)
                    : 0;
  }

  /// Ambient causal context: the eid of the most recently recorded
  /// non-counter event, or whatever the Simulator restored before running a
  /// callback. New events default their `cause` to this.
  std::uint64_t current_cause() const { return current_cause_; }
  void set_current_cause(std::uint64_t eid) { current_cause_ = eid; }

  /// Every recorded event, decoded (a fresh copy on each call).
  std::vector<Event> events() const;
  std::size_t size() const { return size_; }
  /// Drops every event; the record and field chunks are kept for reuse.
  void clear();

  void write_chrome_json(std::ostream& os) const;
  void write_text(std::ostream& os) const;

 private:
  /// One recorded event. `span` is the duration of an 'X' span and the
  /// value of a 'C' counter; fields [first_field, first_field +
  /// field_count) are its arguments.
  struct Record {
    double ts;
    double span;
    std::uint64_t id;
    std::uint64_t eid;
    std::uint64_t cause;
    std::uint32_t name;
    std::uint32_t first_field;
    std::int32_t pid;
    std::int32_t tid;
    Category category;
    char phase;
    std::uint8_t field_count;
  };
  /// One typed argument; keys and string values are interned ids.
  struct StoredField {
    union {
      std::uint64_t number;  ///< kInt, kUint, kDouble: the value's bits
      std::uint32_t string;  ///< kString
    };
    std::uint32_t key;
    Field::Kind kind;
  };
  static_assert(std::is_trivially_copyable_v<Record>);
  static_assert(sizeof(Record) == 64);
  static_assert(std::is_trivially_copyable_v<StoredField>);
  static_assert(Fields::kCapacity <= kFieldsPerChunk);

  /// Shared body of the four non-counter recording methods (enabled only).
  std::uint64_t record(Category category, char phase, std::string_view name,
                       double ts, double span, std::uint64_t id, int pid,
                       int tid, const Fields& fields, std::uint64_t cause);
  /// The id of `text`, copying it into the recorder the first time.
  std::uint32_t intern(std::string_view text);
  /// Rebuild slots_ with `slots` (a power of two) entries.
  void rehash(std::size_t slots);
  std::string_view text(std::uint32_t id) const { return strings_[id]; }
  /// The slot for the next record.
  Record& append_record();
  /// Room for `count` contiguous fields; returns the index of the first.
  std::uint32_t append_fields(std::size_t count);
  StoredField* field_at(std::size_t index) const {
    return field_chunks_[index / kFieldsPerChunk].get() +
           index % kFieldsPerChunk;
  }
  std::span<const StoredField> fields_of(const Record& rec) const {
    if (rec.field_count == 0) return {};
    return {field_at(rec.first_field), rec.field_count};
  }
  /// Calls fn(record) for every record, in recording order.
  template <typename Fn>
  void for_each_record(Fn&& fn) const {
    for (std::size_t first = 0; first < size_; first += kRecordsPerChunk) {
      const Record* chunk = record_chunks_[first / kRecordsPerChunk].get();
      const std::size_t n = std::min(kRecordsPerChunk, size_ - first);
      for (std::size_t i = 0; i < n; ++i) fn(chunk[i]);
    }
  }
  /// The stored field as a Field viewing the interned strings.
  Field load(const StoredField& field) const;

  bool enabled_ = false;
  std::uint64_t next_eid_ = 1;
  std::uint64_t current_cause_ = 0;
  /// Records [0, size_) and fields [0, fields_end_), by index i at
  /// chunks[i / per-chunk][i % per-chunk]. A chunk of fields may end in
  /// unused slots: a record whose fields would cross into the next chunk
  /// starts it instead.
  std::vector<std::unique_ptr<Record[]>> record_chunks_;
  std::vector<std::unique_ptr<StoredField[]>> field_chunks_;
  std::size_t size_ = 0;
  std::size_t fields_end_ = 0;
  /// Interned texts by id. Their bytes live in chunks_, which never move,
  /// so the views stay valid as the recorder grows or is moved.
  std::vector<std::string_view> strings_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* chunk_next_ = nullptr;  ///< free bytes of chunks_.back()
  char* chunk_end_ = nullptr;
  /// Open-addressing index over strings_: id + 1 per slot, 0 when empty,
  /// at least twice as many slots as strings.
  std::vector<std::uint32_t> slots_;
#else
  // Tracing compiled out: every call site guarded by enabled() is dead code.
  void set_enabled(bool) {}
  static constexpr bool enabled() { return false; }
  std::uint64_t complete(Category, std::string_view, double, double, int, int,
                         const Fields& = {}, std::uint64_t = kAmbient) {
    return 0;
  }
  std::uint64_t instant(Category, std::string_view, double, int, int,
                        const Fields& = {}, std::uint64_t = kAmbient) {
    return 0;
  }
  void counter(Category, std::string_view, double, double,
               int = kPidNetwork) {}
  std::uint64_t async_begin(Category, std::string_view, std::uint64_t, double,
                            const Fields& = {}, std::uint64_t = kAmbient) {
    return 0;
  }
  std::uint64_t async_end(Category, std::string_view, std::uint64_t, double,
                          const Fields& = {}, std::uint64_t = kAmbient) {
    return 0;
  }
  static constexpr std::uint64_t current_cause() { return 0; }
  void set_current_cause(std::uint64_t) {}
  std::vector<Event> events() const { return {}; }
  std::size_t size() const { return 0; }
  void clear() {}
  void write_chrome_json(std::ostream& os) const;
  void write_text(std::ostream&) const {}
#endif
};

}  // namespace autopipe::trace
