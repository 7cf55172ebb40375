// Buffered text output shared by every text artifact sink: the trace
// (text and Chrome JSON), the decision ledger and the metric time series.
//
// A TextWriter formats straight into one 64 KiB buffer and hands each full
// buffer to `os.write`, so a sink never builds a second copy of what it
// writes and never goes through per-field `ostream <<` or `snprintf`.
// Numbers use std::to_chars, which is specified to print exactly what
// printf prints for the same conversion:
//   * General{v}     ≡ "%.9g" (format_double; every double in an artifact)
//   * Fixed{v, p}    ≡ "%.<p>f" (trace timestamps, Chrome microseconds)
//   * integers       ≡ std::to_string
// tests/trace_test.cpp pins these equivalences, edge values included.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstring>
#include <iosfwd>
#include <memory>
#include <string_view>

namespace autopipe::trace {

/// A double printed as "%.9g".
struct General {
  double value;
};

/// A double printed as "%.<precision>f"; precision is at most 9.
struct Fixed {
  double value;
  int precision;
};

/// Longest "%.9g" text: "-1.23456789e-308" is 16 characters.
inline constexpr std::size_t kMaxGeneralChars = 24;
/// Longest "%.9f" text: -DBL_MAX has 309 integer digits, so 320 characters.
inline constexpr std::size_t kMaxFixedChars = 324;

/// Write `value` as "%.9g" at `out` (room for kMaxGeneralChars); returns
/// the end of the text. format_double and every sink go through this.
inline char* write_general(char* out, double value) {
  return std::to_chars(out, out + kMaxGeneralChars, value,
                       std::chars_format::general, 9)
      .ptr;
}

/// Write `value` as "%.<precision>f" at `out` (room for kMaxFixedChars);
/// returns the end of the text.
inline char* write_fixed(char* out, double value, int precision) {
  return std::to_chars(out, out + kMaxFixedChars, value,
                       std::chars_format::fixed, precision)
      .ptr;
}

class TextWriter {
 public:
  static constexpr std::size_t kBufferBytes = 64 * 1024;

  explicit TextWriter(std::ostream& os);
  ~TextWriter() { flush(); }

  TextWriter& operator<<(std::string_view text) {
    if (text.size() > kBufferBytes - used_) return put_slow(text);
    std::memcpy(buffer_.get() + used_, text.data(), text.size());
    used_ += text.size();
    return *this;
  }
  TextWriter& operator<<(char c) {
    if (used_ == kBufferBytes) flush();
    buffer_[used_++] = c;
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextWriter& operator<<(T value) {
    char* out = room(24);  // 20 digits and a sign at most
    used_ = std::to_chars(out, out + 24, value).ptr - buffer_.get();
    return *this;
  }
  TextWriter& operator<<(General g) {
    used_ = write_general(room(kMaxGeneralChars), g.value) - buffer_.get();
    return *this;
  }
  TextWriter& operator<<(Fixed f) {
    used_ = write_fixed(room(kMaxFixedChars), f.value, f.precision) -
            buffer_.get();
    return *this;
  }

  /// Hand everything buffered so far to the stream.
  void flush();

 private:
  /// Flush unless `bytes` more fit; returns where the next text goes.
  char* room(std::size_t bytes) {
    if (kBufferBytes - used_ < bytes) flush();
    return buffer_.get() + used_;
  }
  /// operator<< for text that does not fit in what is left of the buffer.
  TextWriter& put_slow(std::string_view text);

  std::ostream& os_;
  std::unique_ptr<char[]> buffer_;
  std::size_t used_ = 0;
};

}  // namespace autopipe::trace
