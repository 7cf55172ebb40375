#include "analysis/trace_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/expect.hpp"

namespace autopipe::analysis {

namespace {

/// Category for a name, or false when the name is unknown (a newer writer's
/// category: the caller skips the line and counts it).
bool lookup_category(std::string_view name, trace::Category& out) {
  using trace::Category;
  if (name == "compute") out = Category::kCompute;
  else if (name == "comm") out = Category::kComm;
  else if (name == "switch") out = Category::kSwitch;
  else if (name == "control") out = Category::kControl;
  else if (name == "resource") out = Category::kResource;
  else if (name == "mark") out = Category::kMark;
  else if (name == "fault") out = Category::kFault;
  else return false;
  return true;
}

// Numbers are read with std::from_chars, which reads the plain decimal
// tokens the writer emits without a copy. A token it refuses or reads only
// in part (a leading '+', a hex float, an out-of-range value, a sign on an
// integer), or reads to a NaN, whose payload it drops, goes to the
// strtod/strtoull the format has always been read with, on a NUL-terminated
// copy. Every token therefore reads to the same value, or is refused, as it
// always was.

double parse_double_field(std::string_view token, std::size_t line_no) {
  double v = 0.0;
  const char* last = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), last, v);
  if (ec == std::errc{} && stop == last && !std::isnan(v)) return v;
  const std::string copy(token);
  char* end = nullptr;
  v = std::strtod(copy.c_str(), &end);
  AUTOPIPE_EXPECT_MSG(end != nullptr && *end == '\0' && !copy.empty(),
                      "trace line " << line_no << ": bad number " << token);
  return v;
}

std::uint64_t parse_u64_field(std::string_view token, std::size_t line_no) {
  std::uint64_t v = 0;
  const char* last = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), last, v);
  if (ec == std::errc{} && stop == last) return v;
  const std::string copy(token);
  char* end = nullptr;
  const unsigned long long wide = std::strtoull(copy.c_str(), &end, 10);
  AUTOPIPE_EXPECT_MSG(end != nullptr && *end == '\0' && !copy.empty(),
                      "trace line " << line_no << ": bad integer " << token);
  return static_cast<std::uint64_t>(wide);
}

/// The characters `std::istream >> std::string` stops at in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Cut `line` into its whitespace-separated tokens, as views into it.
void split(std::string_view line, std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t begin = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > begin) tokens.push_back(line.substr(begin, i - begin));
  }
}

/// Parse every line of `is` onto the end of `events`.
void read_events(std::istream& is, std::vector<trace::Event>& events,
                 ReadStats* stats) {
  ReadStats local;
  ReadStats& st = stats != nullptr ? *stats : local;
  st = ReadStats{};
  std::string line;
  std::vector<std::string_view> tokens;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    split(line, tokens);
    AUTOPIPE_EXPECT_MSG(tokens.size() >= 6,
                        "trace line " << line_no << ": truncated");

    trace::Event ev;
    ev.ts = parse_double_field(tokens[0], line_no);
    if (!lookup_category(tokens[1], ev.category)) {
      ++st.skipped_lines;  // a newer writer's category: skip the whole line
      continue;
    }
    AUTOPIPE_EXPECT_MSG(tokens[2].size() == 1,
                        "trace line " << line_no << ": bad phase "
                                      << tokens[2]);
    ev.phase = tokens[2][0];
    if (ev.phase != 'X' && ev.phase != 'i' && ev.phase != 'C' &&
        ev.phase != 'b' && ev.phase != 'e') {
      ++st.skipped_lines;  // a newer writer's phase: skip the whole line
      continue;
    }
    ev.name = tokens[3];

    // Everything after the name is `key=value` fields, parsed by key so a
    // newer writer may add fields in any position. Keys this reader knows
    // land in Event fields; anything else is preserved as an arg. Arg
    // values may contain spaces (e.g. resource_event descriptions), so a
    // bare token continues the previous arg's value — or is dropped and
    // counted when there is none.
    bool saw_pid = false, saw_tid = false, saw_phase_field = false;
    for (std::size_t i = 4; i < tokens.size(); ++i) {
      const std::string_view t = tokens[i];
      const std::size_t eq = t.find('=');
      if (eq == std::string_view::npos) {
        if (ev.args.empty()) {
          ++st.dropped_tokens;
        } else {
          ev.args.back().value += ' ';
          ev.args.back().value += t;
        }
        continue;
      }
      const std::string_view key = t.substr(0, eq);
      const std::string_view value = t.substr(eq + 1);
      if (key == "pid") {
        ev.pid = static_cast<int>(parse_double_field(value, line_no));
        saw_pid = true;
      } else if (key == "tid") {
        ev.tid = static_cast<int>(parse_double_field(value, line_no));
        saw_tid = true;
      } else if (key == "dur" && ev.phase == 'X') {
        ev.dur = parse_double_field(value, line_no);
        saw_phase_field = true;
      } else if (key == "id" && (ev.phase == 'b' || ev.phase == 'e')) {
        ev.id = parse_u64_field(value, line_no);
        saw_phase_field = true;
      } else if (key == "value" && ev.phase == 'C') {
        ev.value = parse_double_field(value, line_no);
        saw_phase_field = true;
      } else if (key == "eid") {
        ev.eid = parse_u64_field(value, line_no);
      } else if (key == "cause") {
        ev.cause = parse_u64_field(value, line_no);
      } else {
        ev.args.push_back(trace::Arg{std::string(key), std::string(value)});
      }
    }
    AUTOPIPE_EXPECT_MSG(saw_pid && saw_tid,
                        "trace line " << line_no << ": missing pid/tid");
    if (ev.phase == 'X') {
      AUTOPIPE_EXPECT_MSG(saw_phase_field,
                          "trace line " << line_no << ": X without dur");
    } else if (ev.phase == 'b' || ev.phase == 'e') {
      AUTOPIPE_EXPECT_MSG(saw_phase_field,
                          "trace line " << line_no << ": async without id");
    } else if (ev.phase == 'C') {
      AUTOPIPE_EXPECT_MSG(saw_phase_field,
                          "trace line " << line_no << ": C without value");
    }
    events.push_back(std::move(ev));
  }
  st.events = events.size();
}

/// Lines in the rest of `in`, counted in 1 MiB blocks; a last line without
/// a newline counts too.
std::size_t count_lines(std::istream& in) {
  std::vector<char> block(std::size_t{1} << 20);
  std::size_t lines = 0;
  char last = '\n';
  while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         in.gcount() > 0) {
    const auto n = static_cast<std::size_t>(in.gcount());
    lines += static_cast<std::size_t>(
        std::count(block.data(), block.data() + n, '\n'));
    last = block[n - 1];
  }
  return lines + (last != '\n' ? 1 : 0);
}

}  // namespace

std::vector<trace::Event> parse_text(std::istream& is, ReadStats* stats) {
  std::vector<trace::Event> events;
  read_events(is, events, stats);
  return events;
}

std::vector<trace::Event> parse_text_file(const std::string& path,
                                          ReadStats* stats) {
  std::ifstream in(path);
  AUTOPIPE_EXPECT_MSG(in.good(), "cannot read trace file " << path);
  std::vector<trace::Event> events;
  // One event per line: size the vector once, so it never grows by
  // doubling. A pipe cannot be read twice and is read without the count.
  std::error_code ec;
  if (std::filesystem::is_regular_file(path, ec)) {
    events.reserve(count_lines(in));
    in.clear();
    in.seekg(0);
  }
  read_events(in, events, stats);
  return events;
}

}  // namespace autopipe::analysis
