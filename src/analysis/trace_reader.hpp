// Reads a recorded trace back into trace::Event records. The deterministic
// text sink (TraceRecorder::write_text) is the on-disk interchange format —
// one event per line — and parses losslessly; the in-memory recorder is
// consumed directly, so analyses run identically on a live run and on a
// file written weeks ago. Each line is read in one pass: it is cut into
// views of its tokens in place and only the name and the args are copied
// out. Decode a trace once and let every analysis borrow the result
// (TraceView, CausalGraph).
//
// Forward compatibility: everything after the name token is parsed by key,
// not by position. Keys the reader knows (pid/tid plus the per-phase
// dur/id/value and the causal eid/cause) land in their Event fields; any
// other `key=value` is preserved as an event arg, so a trace written by a
// newer build still loads — new fields ride along instead of failing the
// parse. Lines with an unknown category or phase are skipped and counted,
// and a bare token that continues nothing is dropped and counted; ReadStats
// surfaces both so tools can warn (the same skip-and-count contract as
// metrics.dropped_samples). Structurally required fields — the timestamp
// header, pid/tid, and the per-phase field — still throw when missing or
// malformed: a trace that lies about what it contains is corrupt, not new.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/trace.hpp"

namespace autopipe::analysis {

/// Leniency counters from one parse. Zero everywhere on a same-version
/// round-trip; non-zero values mean the trace came from a different writer
/// version (or was damaged) and the reader healed around it.
struct ReadStats {
  std::size_t events = 0;          ///< events successfully parsed
  std::size_t skipped_lines = 0;   ///< unknown category/phase: whole line
  std::size_t dropped_tokens = 0;  ///< bare tokens continuing no arg
  bool clean() const { return skipped_lines == 0 && dropped_tokens == 0; }
};

/// Parse the deterministic text format. Throws contract_error on a
/// malformed line (truncated header, bad numbers, missing required
/// fields); skip-and-count leniency is reported through `stats` when
/// provided.
std::vector<trace::Event> parse_text(std::istream& is,
                                     ReadStats* stats = nullptr);

/// Open and parse a file. The event vector is sized once, from the file's
/// line count, which is taken in 1 MiB blocks before the parse. Throws
/// contract_error when the file cannot be read.
std::vector<trace::Event> parse_text_file(const std::string& path,
                                          ReadStats* stats = nullptr);

}  // namespace autopipe::analysis
