// The tracing tier (ctest label `trace`): TraceRecorder/MetricsRegistry
// units, Chrome JSON shape, golden-trace determinism on a fig3-style
// bandwidth-drop scenario, and temporal invariants read back from recorded
// traces — 1F1B ordering, fine-grained vs stop-the-world switching, and
// max-min capacity respect.
//
// Golden file regeneration: run with AUTOPIPE_REGEN_GOLDEN=1 in the
// environment and the checked-in trace is rewritten instead of compared.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/trace_reader.hpp"
#include "common/expect.hpp"
#include "common/max_min.hpp"
#include "common/metrics.hpp"
#include "common/text_writer.hpp"
#include "common/trace.hpp"
#include "common/units.hpp"
#include "golden_file.hpp"
#include "golden_scenario.hpp"
#include "models/zoo.hpp"
#include "partition/partition.hpp"
#include "pipeline/executor.hpp"
#include "sim/cluster.hpp"
#include "sim/trace.hpp"
#include "sweep/outputs.hpp"
#include "sweep/runner.hpp"

namespace autopipe {
namespace {

using trace::Category;
using trace::Event;
using trace::TraceRecorder;

// ---------------------------------------------------------------------------
// MetricsRegistry (always compiled, tracing on or off)
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersAccumulateAndGaugesOverwrite) {
  trace::MetricsRegistry metrics;
  EXPECT_TRUE(metrics.empty());
  EXPECT_DOUBLE_EQ(metrics.value("never.touched"), 0.0);
  EXPECT_FALSE(metrics.has("never.touched"));

  metrics.add("a.count");
  metrics.add("a.count");
  metrics.add("a.bytes", 100.0);
  metrics.set("a.gauge", 7.0);
  metrics.set("a.gauge", 3.0);

  EXPECT_DOUBLE_EQ(metrics.value("a.count"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.value("a.bytes"), 100.0);
  EXPECT_DOUBLE_EQ(metrics.value("a.gauge"), 3.0);
  EXPECT_TRUE(metrics.has("a.gauge"));
  EXPECT_EQ(metrics.all().size(), 3u);
  // std::map keeps names sorted — printed forms are deterministic.
  EXPECT_EQ(metrics.all().begin()->first, "a.bytes");
  metrics.clear();
  EXPECT_TRUE(metrics.empty());
}

TEST(TraceFormat, FormatDoubleIsDeterministic) {
  EXPECT_EQ(trace::format_double(0.5), "0.5");
  EXPECT_EQ(trace::format_double(1e9), "1e+09");
  EXPECT_EQ(trace::format_double(0.1 + 0.2), trace::format_double(0.1 + 0.2));
}

// ---------------------------------------------------------------------------
// Number formatting: the sinks print through TextWriter's to_chars paths,
// which must match the printf conversions and std::to_string digits the
// artifacts were first written with.
// ---------------------------------------------------------------------------

/// What a TextWriter prints for `value`.
template <typename T>
std::string written(const T& value) {
  std::ostringstream os;
  {
    trace::TextWriter out(os);
    out << value;
  }
  return os.str();
}

std::string printed(const char* format, double value) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

void expect_printf_formats(double v) {
  EXPECT_EQ(written(trace::Fixed{v, 9}), printed("%.9f", v)) << v;
  EXPECT_EQ(written(trace::Fixed{v, 3}), printed("%.3f", v)) << v;
  EXPECT_EQ(written(trace::General{v}), printed("%.9g", v)) << v;
  EXPECT_EQ(trace::format_double(v), printed("%.9g", v)) << v;
}

template <typename T>
void expect_to_string_digits(T v) {
  EXPECT_EQ(written(v), std::to_string(v));
  const trace::Arg decoded = trace::arg("k", v);
  EXPECT_EQ(decoded.value, std::to_string(v));
}

TEST(TraceFormat, DoublesMatchPrintfOnEdgeValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double values[] = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 1e300,
      DBL_MAX, -DBL_MAX, kInf, -kInf, kNan, -kNan,
      9007199254740991.0,  // 2^53 - 1
      9007199254740993.0,  // 2^53 + 1, which rounds to 2^53
      0.1 + 0.2, 0.5, 1e9,
      0.0009765625,  // 2^-10: an exact tie at the tenth decimal
  };
  for (const double v : values) expect_printf_formats(v);
  // The widest field a sink writes: -DBL_MAX has 309 integer digits.
  EXPECT_EQ(written(trace::Fixed{-DBL_MAX, 9}).size(), 320u);
  const trace::Arg decoded = trace::arg("k", kNan);
  EXPECT_EQ(decoded.value, printed("%.9g", kNan));
}

TEST(TraceFormat, IntegersMatchToString) {
  expect_to_string_digits(std::numeric_limits<std::int64_t>::min());
  expect_to_string_digits(std::numeric_limits<std::int64_t>::max());
  expect_to_string_digits(std::numeric_limits<std::uint64_t>::max());
  expect_to_string_digits(std::int64_t{(1LL << 53) - 1});
  expect_to_string_digits(std::uint64_t{(1ULL << 53) + 1});
  expect_to_string_digits(std::numeric_limits<std::size_t>::max());
  expect_to_string_digits(0);
  expect_to_string_digits(-1);
  expect_to_string_digits(7u);
  // bool records as an unsigned integer, printed as std::to_string(int).
  const trace::Arg flag = trace::arg("flag", true);
  EXPECT_EQ(flag.value, std::to_string(true));
}

TEST(TraceFormat, RandomBitPatternsMatchPrintfAndToString) {
  std::mt19937_64 rng(20240817);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    expect_printf_formats(v);
    expect_to_string_digits(bits);
    expect_to_string_digits(static_cast<std::int64_t>(bits));
    if (::testing::Test::HasFailure()) break;  // one report, not 10 000
  }
}

// ---------------------------------------------------------------------------
// Text reader edge cases (always compiled: the reader needs no recorder)
// ---------------------------------------------------------------------------

/// A double at full precision; a NaN with its bits, so a payload shows.
std::string exact(double v) {
  char buf[64];
  if (std::isnan(v)) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    std::snprintf(buf, sizeof buf, "nan:%016llx",
                  static_cast<unsigned long long>(bits));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// What the reader makes of `text`: one line per event (the fields a line
/// always carries, then each other field that is not zero, then every arg
/// quoted) and the ReadStats counters; or, when it refuses the text, the
/// message after the contract prefix.
std::string read_back(const std::string& text) {
  std::istringstream is(text);
  analysis::ReadStats stats;
  std::vector<Event> events;
  try {
    events = analysis::parse_text(is, &stats);
  } catch (const contract_error& e) {
    const std::string what = e.what();
    return "rejected: " + what.substr(what.find(" — ") + strlen(" — "));
  }
  std::ostringstream out;
  for (const Event& ev : events) {
    out << exact(ev.ts) << ' ' << trace::category_name(ev.category) << ' '
        << ev.phase << ' ' << ev.name << " pid=" << ev.pid
        << " tid=" << ev.tid;
    const double zero = 0.0;
    if (std::memcmp(&ev.dur, &zero, sizeof zero) != 0)
      out << " dur=" << exact(ev.dur);
    if (std::memcmp(&ev.value, &zero, sizeof zero) != 0)
      out << " value=" << exact(ev.value);
    if (ev.id != 0) out << " id=" << ev.id;
    if (ev.eid != 0) out << " eid=" << ev.eid;
    if (ev.cause != 0) out << " cause=" << ev.cause;
    for (const trace::Arg& a : ev.args)
      out << ' ' << a.key << "='" << a.value << '\'';
    out << '\n';
  }
  out << "events=" << stats.events << " skipped=" << stats.skipped_lines
      << " dropped=" << stats.dropped_tokens;
  return out.str();
}

/// The change_detected line of a 5x2 run whose NICs all drop, as it was
/// written while every description item ended in "; ": 80 description
/// tokens after the 8 the line starts with. `what` receives the
/// description as the reader joins it.
std::string change_detected_line(std::string& what) {
  std::string line =
      "12.5 control i change_detected pid=1001 tid=1 eid=500 cause=499 "
      "what=";
  what.clear();
  for (int w = 0; w < 10; ++w) {
    const std::string item = "bandwidth change on worker " +
                             std::to_string(w) + " (1.25e+09 -> 5e+08);";
    line += item + ' ';
    what += (w == 0 ? "" : " ") + item;
  }
  return line + '\n';
}

TEST(TraceReader, EdgeCasesReadOrRejectAsPinned) {
  struct Case {
    const char* name;
    std::string text;
    std::string want;
  };
  std::string what;
  const std::string long_line = change_detected_line(what);
  const Case cases[] = {
      {"plus sign on ts", "+0.5 compute X fp pid=0 tid=0 dur=1\n",
       "0.5 compute X fp pid=0 tid=0 dur=1\nevents=1 skipped=0 dropped=0"},
      {"plus sign on value and pid",
       "0 comm C load:x pid=+1000 tid=0 value=+1.5e9\n",
       "0 comm C load:x pid=1000 tid=0 value=1500000000\n"
       "events=1 skipped=0 dropped=0"},
      {"hex floats", "0x1p-1 compute X fp pid=0 tid=0 dur=0x1.8p1\n",
       "0.5 compute X fp pid=0 tid=0 dur=3\nevents=1 skipped=0 dropped=0"},
      {"inf and nan", "inf comm C load:x pid=1000 tid=0 value=nan\n",
       "inf comm C load:x pid=1000 tid=0 value=nan:7ff8000000000000\n"
       "events=1 skipped=0 dropped=0"},
      {"spelled-out and negative inf, nan with a payload",
       "-INFINITY compute X fp pid=0 tid=0 dur=nan(123)\n",
       "-inf compute X fp pid=0 tid=0 dur=nan:7ff800000000007b\n"
       "events=1 skipped=0 dropped=0"},
      {"out-of-range doubles saturate",
       "1e400 compute X fp pid=0 tid=0 dur=1e-400\n",
       "inf compute X fp pid=0 tid=0\nevents=1 skipped=0 dropped=0"},
      {"-1 as id, eid and cause wraps",
       "0 comm b flow pid=1000 tid=0 id=-1 eid=-1 cause=-1\n",
       "0 comm b flow pid=1000 tid=0 id=18446744073709551615 "
       "eid=18446744073709551615 cause=18446744073709551615\n"
       "events=1 skipped=0 dropped=0"},
      {"an overflowing integer saturates",
       "0 comm e flow pid=1000 tid=0 id=99999999999999999999 eid=+7\n",
       "0 comm e flow pid=1000 tid=0 id=18446744073709551615 eid=7\n"
       "events=1 skipped=0 dropped=0"},
      {"pid and tid truncate a number",
       "0.5 compute X fp pid=2.9 tid=1e1 dur=1\n",
       "0.5 compute X fp pid=2 tid=10 dur=1\nevents=1 skipped=0 dropped=0"},
      {"tabs, CR, VT and FF separate tokens",
       "0.5\tcompute\tX\tfp\tpid=0\r\ttid=0 \v dur=1\f\n",
       "0.5 compute X fp pid=0 tid=0 dur=1\nevents=1 skipped=0 dropped=0"},
      {"CRLF line ends",
       "0.5 compute X fp pid=0 tid=0 dur=1 what=a\r\n"
       "0.75 mark i iteration pid=1001 tid=0 n=2\r\n",
       "0.5 compute X fp pid=0 tid=0 dur=1 what='a'\n"
       "0.75 mark i iteration pid=1001 tid=0 n='2'\n"
       "events=2 skipped=0 dropped=0"},
      {"a CRLF blank line is not empty", "\r\n",
       "rejected: trace line 1: truncated"},
      {"a run of spaces inside a continued arg",
       "0 resource i resource_event pid=1002 tid=0 what=set   all\t NIC  "
       "bandwidth after=done\n",
       "0 resource i resource_event pid=1002 tid=0 what='set all NIC "
       "bandwidth' after='done'\nevents=1 skipped=0 dropped=0"},
      {"a bare token after a known field continues the last arg",
       "0.5 compute X fp pid=0 tid=0 a=1 dur=1 tail\n",
       "0.5 compute X fp pid=0 tid=0 dur=1 a='1 tail'\n"
       "events=1 skipped=0 dropped=0"},
      {"a bare token with no arg before it is dropped",
       "0.5 compute X fp pid=0 stray tid=0 dur=1 also\n",
       "0.5 compute X fp pid=0 tid=0 dur=1\nevents=1 skipped=0 dropped=2"},
      {"empty keys, '=' in values, other phases' fields are args",
       "0.5 mark i iteration pid=1001 tid=0 =5 a=b=c dur=3 id=4 value=1\n",
       "0.5 mark i iteration pid=1001 tid=0 ='5' a='b=c' dur='3' id='4' "
       "value='1'\nevents=1 skipped=0 dropped=0"},
      {"the last pid wins", "0.5 compute X fp pid=1 tid=0 pid=2 dur=1\n",
       "0.5 compute X fp pid=2 tid=0 dur=1\nevents=1 skipped=0 dropped=0"},
      {"an unknown category skips the line",
       "0.5 nonsense X fp pid=0 tid=0 dur=1\n"
       "0.5 compute X fp pid=0 tid=0 dur=1\n",
       "0.5 compute X fp pid=0 tid=0 dur=1\nevents=1 skipped=1 dropped=0"},
      {"an unknown phase skips the line", "0.5 compute Z fp pid=0 tid=0\n",
       "events=0 skipped=1 dropped=0"},
      {"the ts is read before the category",
       "x nonsense X fp pid=0 tid=0 dur=1\n",
       "rejected: trace line 1: bad number x"},
      {"a long phase", "0.5 compute XX fp pid=0 tid=0 dur=1\n",
       "rejected: trace line 1: bad phase XX"},
      {"a long phase of an unknown category skips",
       "0.5 nonsense XX fp pid=0 tid=0 dur=1\n",
       "events=0 skipped=1 dropped=0"},
      {"missing pid", "0.5 compute X fp tid=0 dur=1\n",
       "rejected: trace line 1: missing pid/tid"},
      {"missing tid", "0.5 compute X fp pid=0 dur=1\n",
       "rejected: trace line 1: missing pid/tid"},
      {"missing dur", "0.5 compute X fp pid=0 tid=0 a=1\n",
       "rejected: trace line 1: X without dur"},
      {"missing id", "0 comm b flow pid=1000 tid=0 bytes=5\n",
       "rejected: trace line 1: async without id"},
      {"missing value", "0 comm C load:x pid=1000 tid=0 eid=1\n",
       "rejected: trace line 1: C without value"},
      {"an empty number", "0.5 compute X fp pid=0 tid=0 dur=\n",
       "rejected: trace line 1: bad number "},
      {"a fractional eid", "0.5 compute X fp pid=0 tid=0 dur=1 eid=1.5\n",
       "rejected: trace line 1: bad integer 1.5"},
      {"a number with a tail", "0.5 compute X fp pid=0 tid=0 dur=1e\n",
       "rejected: trace line 1: bad number 1e"},
      {"five tokens", "0.5 compute X fp pid=0\n",
       "rejected: trace line 1: truncated"},
      {"blank lines count toward line numbers",
       "\n0.5 compute X fp pid=0 tid=0 dur=1\n\n"
       "0.5 compute X fp pid=x tid=0 dur=1\n",
       "rejected: trace line 4: bad number x"},
      {"no newline after the last line", "0.5 compute X fp pid=0 tid=0 dur=1",
       "0.5 compute X fp pid=0 tid=0 dur=1\nevents=1 skipped=0 dropped=0"},
      {"an 88-token change_detected line", long_line,
       "12.5 control i change_detected pid=1001 tid=1 eid=500 cause=499 "
       "what='" + what + "'\nevents=1 skipped=0 dropped=0"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(read_back(c.text), c.want);
  }
}

#if AUTOPIPE_TRACING

// ---------------------------------------------------------------------------
// TraceRecorder unit behaviour
// ---------------------------------------------------------------------------

TEST(TraceRecorder, DisabledByDefaultRecordsNothing) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  rec.complete(Category::kCompute, "fp", 0.0, 1.0, 0, 0);
  rec.instant(Category::kMark, "x", 0.5, 0, 0);
  rec.counter(Category::kComm, "c", 0.5, 1.0);
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, RecordsEventsWithArgs) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.complete(Category::kCompute, "fp", 1.0, 2.5, 3, 1,
               {trace::arg("batch", 7), trace::arg("speed", 0.5)});
  rec.async_begin(Category::kComm, "flow", 42, 1.5);
  rec.async_end(Category::kComm, "flow", 42, 2.0);
  ASSERT_EQ(rec.size(), 3u);

  // events() decodes a fresh copy: keep it alive while referencing into it.
  const std::vector<Event> events = rec.events();
  const Event& fp = events[0];
  EXPECT_EQ(fp.phase, 'X');
  EXPECT_DOUBLE_EQ(fp.ts, 1.0);
  EXPECT_DOUBLE_EQ(fp.dur, 1.5);
  EXPECT_EQ(fp.pid, 3);
  EXPECT_EQ(fp.tid, 1);
  ASSERT_NE(fp.find_arg("batch"), nullptr);
  EXPECT_EQ(*fp.find_arg("batch"), "7");
  ASSERT_NE(fp.find_arg("speed"), nullptr);
  EXPECT_EQ(*fp.find_arg("speed"), "0.5");
  EXPECT_EQ(fp.find_arg("absent"), nullptr);

  EXPECT_EQ(events[1].phase, 'b');
  EXPECT_EQ(events[2].phase, 'e');
  EXPECT_EQ(events[1].id, 42u);

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

TEST(TraceRecorder, ChromeJsonHasRequiredFields) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.complete(Category::kCompute, "fp", 0.001, 0.002, 0, 1,
               {trace::arg("batch", 1)});
  rec.instant(Category::kSwitch, "switch_request_stw", 0.003,
              trace::kPidControl, 0);
  rec.counter(Category::kComm, "cap:link", 0.0, 100.0);

  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();
  // trace_event essentials: the array key, per-event name/ph/ts/pid/tid,
  // and process_name metadata for the synthetic rows.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fp\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Chrome timestamps are microseconds: the 0.001 s span starts at ts=1000.
  EXPECT_NE(json.find("\"ts\":1000.000"), std::string::npos);
}

TEST(TraceRecorder, ChromeJsonEscapesNamesAndStringArgs) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.instant(Category::kMark, "a\"b\\c", 0.0, 0, 0,
              {trace::arg("what", "x\ny\tz\x01!"), trace::arg("n", -3)});
  std::ostringstream os;
  rec.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"name\":\"a\\\"b\\\\c\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"what\":\"x\\ny\\tz\\u0001!\",\"n\":\"-3\"}"),
            std::string::npos);
}

TEST(TraceRecorder, TextFormatIsStable) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.complete(Category::kCompute, "fp", 0.25, 0.5, 2, 1,
               {trace::arg("batch", 3)});
  rec.counter(Category::kComm, "cap:link", 0.0, 12.5);
  std::ostringstream os;
  rec.write_text(os);
  EXPECT_EQ(os.str(),
            "0.250000000 compute X fp pid=2 tid=1 dur=0.250000000 eid=1 "
            "batch=3\n"
            "0.000000000 comm C cap:link pid=1000 tid=0 value=12.5\n");
}

TEST(TraceRecorder, RepeatedTimestampsPrintTheirOwnText) {
  // write_text formats a run of equal timestamps once. Runs that compare
  // equal but differ in bits (0.0 and -0.0) and NaNs, which equal nothing,
  // must still print each record's own text.
  const double nan_a = std::bit_cast<double>(std::uint64_t{0x7ff8000000000001});
  const double nan_b = std::bit_cast<double>(std::uint64_t{0xfff4000000000002});
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  const double stamps[] = {
      0.0,     0.0,     -0.0,     0.0,     nan_a,        nan_a,
      nan_b,   nan_a,   kDenorm,  kDenorm, 1e-300,       kDenorm,
      DBL_MAX, DBL_MAX, -DBL_MAX, DBL_MAX, 0.0009765625, 0.0009765625,
      -0.0,    -0.0,    0.0,
  };
  TraceRecorder rec;
  rec.set_enabled(true);
  for (const double ts : stamps) rec.counter(Category::kComm, "c", ts, 1.0);
  std::ostringstream os;
  rec.write_text(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t i = 0;
  for (; std::getline(lines, line); ++i) {
    ASSERT_LT(i, std::size(stamps));
    const std::string want = printed("%.9f", stamps[i]) + ' ';
    EXPECT_EQ(line.substr(0, want.size()), want) << "record " << i;
  }
  EXPECT_EQ(i, std::size(stamps));
}

/// Records `counts.size()` events, the i-th with counts[i] fields of every
/// kind; a field-less event is a counter every third time.
void record_chunk_mix(TraceRecorder& rec,
                      const std::vector<std::size_t>& counts) {
  static const char* const kKeys[] = {"k0", "k1", "k2", "k3",
                                      "k4", "k5", "k6", "k7"};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double ts = 0.125 * static_cast<double>(i);
    const std::string text = "s" + std::to_string(i % 37);
    trace::Fields fields;
    for (std::size_t f = 0; f < counts[i]; ++f) {
      switch ((i + f) % 4) {
        case 0: fields.push_back(trace::arg(kKeys[f], -int(i))); break;
        case 1: fields.push_back(trace::arg(kKeys[f], i * 3)); break;
        case 2: fields.push_back(trace::arg(kKeys[f], 0.5 * i)); break;
        case 3: fields.push_back(trace::arg(kKeys[f], text)); break;
      }
    }
    if (counts[i] == 0 && i % 3 == 0) {
      rec.counter(Category::kComm, "load:" + text, ts, 0.25 * i);
    } else if (i % 2 == 0) {
      rec.instant(Category::kControl, "ev" + text, ts, trace::kPidControl,
                  1, fields);
    } else {
      rec.complete(Category::kCompute, "fp", ts, ts + 0.0625,
                   static_cast<int>(i % 10), 0, fields, i / 2);
    }
  }
}

void expect_same_events(const std::vector<Event>& got,
                        const std::vector<Event>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].name, want[i].name);
    EXPECT_EQ(got[i].phase, want[i].phase);
    EXPECT_EQ(got[i].ts, want[i].ts);
    EXPECT_EQ(got[i].dur, want[i].dur);
    EXPECT_EQ(got[i].value, want[i].value);
    EXPECT_EQ(got[i].pid, want[i].pid);
    EXPECT_EQ(got[i].tid, want[i].tid);
    EXPECT_EQ(got[i].eid, want[i].eid);
    EXPECT_EQ(got[i].cause, want[i].cause);
    ASSERT_EQ(got[i].args.size(), want[i].args.size());
    for (std::size_t a = 0; a < got[i].args.size(); ++a) {
      EXPECT_EQ(got[i].args[a].key, want[i].args[a].key);
      EXPECT_EQ(got[i].args[a].value, want[i].args[a].value);
    }
  }
}

TEST(TraceRecorder, RecordsAcrossChunkBoundaries) {
  // More than two chunks of records and of fields, 0-8 fields per event.
  constexpr std::size_t kRecords = TraceRecorder::kRecordsPerChunk;
  constexpr std::size_t kFields = TraceRecorder::kFieldsPerChunk;
  std::mt19937 gen(7);
  std::vector<std::size_t> counts;
  std::size_t total_fields = 0;
  while (counts.size() <= 2 * kRecords || total_fields <= 2 * kFields) {
    counts.push_back(gen() % 9);
    total_fields += counts.back();
  }
  // Some records' fields would straddle a field chunk's end.
  std::size_t end = 0;
  std::size_t straddles = 0;
  for (std::size_t n : counts) {
    if (end % kFields + n > kFields) {
      ++straddles;
      end += kFields - end % kFields;
    }
    end += n;
  }
  ASSERT_GT(straddles, 0u);

  TraceRecorder rec;
  rec.set_enabled(true);
  record_chunk_mix(rec, counts);
  ASSERT_EQ(rec.size(), counts.size());

  // events() returns every name, eid, cause and field in order.
  const std::vector<Event> events = rec.events();
  std::uint64_t eid = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    SCOPED_TRACE(i);
    const Event& ev = events[i];
    const std::string text = "s" + std::to_string(i % 37);
    if (counts[i] == 0 && i % 3 == 0) {
      EXPECT_EQ(ev.name, "load:" + text);
      EXPECT_EQ(ev.eid, 0u);
      EXPECT_EQ(ev.value, 0.25 * static_cast<double>(i));
      continue;
    }
    EXPECT_EQ(ev.name, i % 2 == 0 ? "ev" + text : std::string("fp"));
    EXPECT_EQ(ev.eid, ++eid);
    EXPECT_EQ(ev.cause, i % 2 == 0 ? eid - 1 : (i / 2 == eid ? 0 : i / 2));
    ASSERT_EQ(ev.args.size(), counts[i]);
    for (std::size_t f = 0; f < counts[i]; ++f) {
      EXPECT_EQ(ev.args[f].key, "k" + std::to_string(f));
      const std::string want[] = {std::to_string(-int(i)),
                                  std::to_string(i * 3),
                                  trace::format_double(0.5 * i), text};
      EXPECT_EQ(ev.args[f].value, want[(i + f) % 4]);
    }
  }

  // The text sink parses back to the same events.
  std::ostringstream text;
  rec.write_text(text);
  std::istringstream in(text.str());
  expect_same_events(analysis::parse_text(in), events);

  // Cleared and re-recorded, it writes what a fresh recorder writes.
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  record_chunk_mix(rec, counts);
  TraceRecorder fresh;
  fresh.set_enabled(true);
  record_chunk_mix(fresh, counts);
  std::ostringstream again;
  std::ostringstream fresh_text;
  rec.write_text(again);
  fresh.write_text(fresh_text);
  EXPECT_EQ(again.str(), fresh_text.str());
  EXPECT_EQ(again.str(), text.str());
}

// ---------------------------------------------------------------------------
// Scenario helpers (the golden scenario itself lives in golden_scenario.hpp,
// shared with the differential parity harness)
// ---------------------------------------------------------------------------

using test_golden::expect_matches_golden;
using test_scenarios::GoldenCapture;
using test_scenarios::run_golden_scenario;
using test_scenarios::tiny_model;

struct SwitchCapture {
  std::vector<Event> events;
  std::map<std::string, double> metrics;
  std::size_t switches = 0;
  double request_ts = -1.0;
  double finish_ts = -1.0;  // end of the switch X span
};

/// AlexNet on two single-GPU servers over a slow NIC, with a mid-run switch
/// that re-homes the parameter-heavy tail layers — the migration takes many
/// iterations' worth of wire time, so the two switching modes behave
/// visibly differently.
SwitchCapture run_switch_scenario(
    pipeline::PipelineExecutor::SwitchMode mode) {
  sim::Simulator sim;
  sim.tracer().set_enabled(true);
  sim::ClusterConfig config;
  config.num_servers = 2;
  config.gpus_per_server = 1;
  config.nic_bandwidth = gbps(1);
  sim::Cluster cluster(sim, config);

  const auto model = models::alexnet();
  const std::size_t L = model.num_layers();
  const auto initial =
      partition::Partition::even_split(L, {0, 1});
  // Move everything but the last layer onto worker 0: the fully-connected
  // layers' parameters cross the wire.
  const partition::Partition next(
      {{0, L - 2, {0}}, {L - 1, L - 1, {1}}}, L);

  pipeline::PipelineExecutor executor(cluster, model, initial,
                                      pipeline::ExecutorConfig{});
  executor.set_iteration_callback([&](std::size_t iters) {
    if (iters == 3) executor.request_switch(next, mode);
  });
  executor.run(25, 2);

  SwitchCapture capture;
  capture.events = sim.tracer().events();
  capture.metrics = sim.metrics().all();
  capture.switches = executor.switches_performed();
  for (const Event& ev : capture.events) {
    if (ev.phase == 'i' && (ev.name == "switch_request_stw" ||
                            ev.name == "switch_request_fine")) {
      capture.request_ts = ev.ts;
    }
    if (ev.phase == 'X' && ev.name == "switch") {
      capture.finish_ts = ev.ts + ev.dur;
    }
  }
  return capture;
}

// ---------------------------------------------------------------------------
// Whole runs read back: the text sink and the reader lose nothing
// ---------------------------------------------------------------------------

/// Runs `spec` traced and checks that its text trace reads back to the
/// recorder's own events: every field and arg exactly, times to the 1 ns
/// the text keeps, counter values to the 9 digits it keeps.
void expect_run_reads_back(const sweep::ScenarioSpec& spec) {
  sweep::RunOutputs outputs;
  outputs.trace = "run.trace";  // switches the recorder on; never written
  sweep::Scenario scenario(spec, outputs);
  scenario.run();
  const TraceRecorder& rec = scenario.simulator().tracer();
  std::ostringstream text;
  rec.write_text(text);
  std::istringstream in(text.str());
  const std::vector<Event> parsed = analysis::parse_text(in);
  const std::vector<Event> recorded = rec.events();
  ASSERT_EQ(parsed.size(), recorded.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const Event& got = parsed[i];
    const Event& want = recorded[i];
    SCOPED_TRACE(testing::Message() << "event " << i << " " << want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.category, want.category);
    EXPECT_EQ(got.phase, want.phase);
    EXPECT_EQ(got.pid, want.pid);
    EXPECT_EQ(got.tid, want.tid);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.eid, want.eid);
    EXPECT_EQ(got.cause, want.cause);
    EXPECT_NEAR(got.ts, want.ts, 1e-9);
    EXPECT_NEAR(got.dur, want.dur, 1e-9);
    EXPECT_NEAR(got.value, want.value, 1e-8 * std::abs(want.value));
    ASSERT_EQ(got.args.size(), want.args.size());
    for (std::size_t a = 0; a < got.args.size(); ++a) {
      EXPECT_EQ(got.args[a].key, want.args[a].key);
      EXPECT_EQ(got.args[a].value, want.args[a].value);
    }
    if (::testing::Test::HasFailure()) return;  // the first event is enough
  }
}

TEST(TraceReadBack, BandwidthDropRunReadsBackExactly) {
  // vgg16 on 5x2 whose NICs drop to 10 Gbps halfway: its change_detected
  // instant carries the longest arg value a run writes.
  sweep::ScenarioSpec spec;
  spec.model = "vgg16";
  spec.iterations = 200;
  spec.warmup = 20;
  spec.bw_drop_iter = 100;
  spec.bw_drop_gbps = 10.0;
  expect_run_reads_back(spec);
}

TEST(TraceReadBack, FaultedChurnRunReadsBackExactly) {
  sweep::ScenarioSpec spec;
  spec.model = "resnet50";
  spec.servers = 4;
  spec.iterations = 200;
  spec.warmup = 20;
  spec.churn = true;
  spec.faults = "random:seed=7";
  expect_run_reads_back(spec);
}

// ---------------------------------------------------------------------------
// Golden-trace determinism
// ---------------------------------------------------------------------------

TEST(GoldenTrace, RepeatedRunsAreByteIdentical) {
  const GoldenCapture a = run_golden_scenario();
  const GoldenCapture b = run_golden_scenario();
  EXPECT_FALSE(a.text.empty());
  EXPECT_EQ(a.text, b.text);
  // The scenario exercises compute, comm and resource emissions.
  EXPECT_NE(a.text.find(" compute X fp "), std::string::npos);
  EXPECT_NE(a.text.find(" compute X bp "), std::string::npos);
  EXPECT_NE(a.text.find(" comm b flow "), std::string::npos);
  EXPECT_NE(a.text.find("nic_bw"), std::string::npos);
  EXPECT_NE(a.text.find(" mark i iteration "), std::string::npos);
}

TEST(GoldenTrace, MatchesCheckedInGolden) {
  expect_matches_golden("bandwidth_drop.trace", run_golden_scenario().text);
}

// The Chrome sink has its own number formatting (microsecond timestamps,
// quoted args, causal flow-event pairs), so it gets its own byte golden.
TEST(GoldenTrace, ChromeMatchesCheckedInGolden) {
  expect_matches_golden("bandwidth_drop.trace.json",
                        run_golden_scenario().chrome);
}

/// The `--scheme` spelling of a sync scheme: "ring" or "ps".
std::string scheme_flag(comm::SyncScheme scheme) {
  return scheme == comm::SyncScheme::kRing ? "ring" : "ps";
}

class ReplicatedSyncGolden
    : public ::testing::TestWithParam<comm::SyncScheme> {};

// Same-instant flow starts (ring steps, PS pushes), a capacity change, a
// link outage and cancelled migration flows, pinned under both queues.
TEST_P(ReplicatedSyncGolden, MatchesCheckedInGoldenUnderBothQueues) {
  const std::string name = "replicated_" + scheme_flag(GetParam()) + ".trace";
  for (const sim::EventQueueKind kind :
       {sim::EventQueueKind::kHeap, sim::EventQueueKind::kWheel}) {
    const std::string text =
        test_scenarios::run_replicated_sync_scenario(GetParam(), kind);
    EXPECT_NE(text.find(" C cap:server0.nic.tx pid=1000 tid=0 value=250000000"),
              std::string::npos);
    EXPECT_NE(text.find(" switch_abort "), std::string::npos);
    EXPECT_NE(text.find(" cancelled=1"), std::string::npos);
    expect_matches_golden(name, text);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, ReplicatedSyncGolden,
                         ::testing::Values(comm::SyncScheme::kRing,
                                           comm::SyncScheme::kParameterServer),
                         [](const auto& info) {
                           return scheme_flag(info.param);
                         });

// ---------------------------------------------------------------------------
// Temporal invariants read back from traces
// ---------------------------------------------------------------------------

std::uint64_t batch_of(const Event& ev) {
  const std::string* arg = ev.find_arg("batch");
  EXPECT_NE(arg, nullptr);
  return arg ? std::stoull(*arg) : 0;
}

TEST(TraceInvariants, OneFOneBOrderingPerStage) {
  const GoldenCapture capture = run_golden_scenario();

  // With replication 1 each stage serves batches FIFO: the batch ids of its
  // fp spans (and of its bp spans) must be strictly increasing.
  std::map<int, std::uint64_t> last_fp, last_bp;
  // A batch's fp must finish on stage s before it finishes on stage s+1,
  // and its bp on stage s must start after its fp on stage s ended.
  std::map<std::uint64_t, std::map<int, const Event*>> fp_by_batch;

  for (const Event& ev : capture.events) {
    if (ev.phase != 'X' || (ev.name != "fp" && ev.name != "bp")) continue;
    const std::uint64_t batch = batch_of(ev);
    auto& last = ev.name == "fp" ? last_fp : last_bp;
    auto it = last.find(ev.tid);
    if (it != last.end()) {
      EXPECT_LT(it->second, batch)
          << ev.name << " order violated on stage " << ev.tid;
    }
    last[ev.tid] = batch;
    if (ev.name == "fp") fp_by_batch[batch][ev.tid] = &ev;
  }
  EXPECT_FALSE(fp_by_batch.empty());

  for (const auto& [batch, stages] : fp_by_batch) {
    const Event* prev = nullptr;
    for (const auto& [stage, ev] : stages) {
      if (prev) {
        EXPECT_LE(prev->ts + prev->dur, ev->ts + ev->dur + 1e-9)
            << "batch " << batch << " fp completed upstream later than "
            << "downstream at stage " << stage;
      }
      prev = ev;
    }
  }

  for (const Event& ev : capture.events) {
    if (ev.phase != 'X' || ev.name != "bp") continue;
    const std::uint64_t batch = batch_of(ev);
    const auto it = fp_by_batch.find(batch);
    ASSERT_NE(it, fp_by_batch.end());
    const auto fp_it = it->second.find(ev.tid);
    if (fp_it == it->second.end()) continue;
    EXPECT_GE(ev.ts + 1e-9, fp_it->second->ts + fp_it->second->dur)
        << "bp of batch " << batch << " started before its fp ended on "
        << "stage " << ev.tid;
  }
}

TEST(TraceInvariants, FineGrainedSwitchNeverHaltsInjection) {
  const SwitchCapture capture = run_switch_scenario(
      pipeline::PipelineExecutor::SwitchMode::kFineGrained);
  ASSERT_EQ(capture.switches, 1u);
  ASSERT_GE(capture.request_ts, 0.0);
  ASSERT_GT(capture.finish_ts, capture.request_ts);

  std::size_t injected_during_switch = 0;
  for (const Event& ev : capture.events) {
    if (ev.phase == 'i' && ev.name == "inject" &&
        ev.ts > capture.request_ts + 1e-9 &&
        ev.ts < capture.finish_ts - 1e-9) {
      ++injected_during_switch;
    }
  }
  EXPECT_GE(injected_during_switch, 1u)
      << "fine-grained switching must keep feeding the pipeline while the "
         "migration is on the wire (span "
      << capture.request_ts << " .. " << capture.finish_ts << ")";
}

TEST(TraceInvariants, StopTheWorldSwitchShowsDrainGap) {
  const SwitchCapture capture = run_switch_scenario(
      pipeline::PipelineExecutor::SwitchMode::kStopTheWorld);
  ASSERT_EQ(capture.switches, 1u);
  ASSERT_GE(capture.request_ts, 0.0);
  // The stall is real: drain plus migration takes simulated time.
  ASSERT_GT(capture.finish_ts, capture.request_ts + 1e-6);

  for (const Event& ev : capture.events) {
    if (ev.phase == 'i' && ev.name == "inject") {
      EXPECT_FALSE(ev.ts > capture.request_ts + 1e-9 &&
                   ev.ts < capture.finish_ts - 1e-9)
          << "stop-the-world injected a batch mid-switch at t=" << ev.ts;
    }
  }
}

TEST(TraceInvariants, FlowsNeverExceedLinkCapacity) {
  const GoldenCapture capture = run_golden_scenario();
  // Derive each resource's load from the cap: counters and flow records, as
  // a trace reader does: at no instant may it exceed the resource's
  // then-current capacity.
  std::vector<double> cap;
  std::size_t loads_checked = 0;
  common::LoadReplay replay([&](double ts, std::size_t r, double load) {
    EXPECT_LE(load, cap[r] + 1e-6)
        << replay.resource_name(r) << " oversubscribed at t=" << ts;
    ++loads_checked;
  });
  for (const Event& ev : capture.events) {
    if (ev.phase == 'C' && ev.name.starts_with("cap:")) {
      const std::size_t r =
          replay.capacity(ev.ts, std::string_view(ev.name).substr(4), ev.value);
      cap.resize(std::max(cap.size(), r + 1));
      cap[r] = ev.value;
    } else if (ev.phase == 'b' && ev.name == "flow") {
      const std::string* path = ev.find_arg("path");
      ASSERT_NE(path, nullptr) << "flow " << ev.id << " has no path";
      replay.begin_flow(ev.ts, ev.id, *path);
    } else if (ev.phase == 'e' && ev.name == "flow") {
      replay.end_flow(ev.ts, ev.id);
    }
  }
  replay.finish();
  EXPECT_GT(loads_checked, 0u);
}

// ---------------------------------------------------------------------------
// Metrics wired through the executor
// ---------------------------------------------------------------------------

TEST(ExecutorMetrics, SwitchCountersAccumulate) {
  const SwitchCapture stw = run_switch_scenario(
      pipeline::PipelineExecutor::SwitchMode::kStopTheWorld);
  EXPECT_DOUBLE_EQ(stw.metrics.at("switch.count"), 1.0);
  EXPECT_GT(stw.metrics.at("switch.migration_bytes"), 0.0);
  EXPECT_GT(stw.metrics.at("switch.stall_seconds"), 0.0);
  EXPECT_GE(stw.metrics.at("pipeline.bubble_seconds"), 0.0);

  const SwitchCapture fine = run_switch_scenario(
      pipeline::PipelineExecutor::SwitchMode::kFineGrained);
  EXPECT_DOUBLE_EQ(fine.metrics.at("switch.count"), 1.0);
  // Fine-grained never stops the pipeline, so it accrues no stall metric.
  EXPECT_EQ(fine.metrics.count("switch.stall_seconds"), 0u);
}

#else  // !AUTOPIPE_TRACING

TEST(TraceRecorder, CompiledOutIsInertAndValid) {
  TraceRecorder rec;
  rec.set_enabled(true);  // a no-op when compiled out
  EXPECT_FALSE(TraceRecorder::enabled());
  rec.complete(Category::kCompute, "fp", 0.0, 1.0, 0, 0);
  EXPECT_EQ(rec.size(), 0u);
  std::ostringstream os;
  rec.write_chrome_json(os);
  EXPECT_NE(os.str().find("\"traceEvents\":[]"), std::string::npos);
}

#endif  // AUTOPIPE_TRACING

}  // namespace
}  // namespace autopipe
