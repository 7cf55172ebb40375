// Parsing for text read from the command line: one whole-token number
// parser for the flags, the sweep and jobs grammars, the random fault spec
// and the time-series interval, plus the trimming, splitting, statement
// splitting and `@file` loading the two grammars share. Callers wrap a
// failed parse in their own diagnostic.
#pragma once

#include <charconv>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace autopipe::parse {

/// A finite number spelled by the whole of `token`; nullopt for an empty
/// token, trailing characters, inf, nan or a value out of range.
std::optional<double> number(std::string_view token);

/// An integer spelled by the whole of `token` in decimal, parsed as an
/// integer (no detour through double); nullopt for an empty token,
/// trailing characters, a fraction, an exponent, a sign an unsigned `T`
/// cannot take or a value out of range.
template <typename T>
std::optional<T> integer(std::string_view token) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

/// `s` without leading and trailing whitespace.
std::string trim(std::string_view s);

/// `s` cut at every `sep`; a trailing separator adds no empty item.
std::vector<std::string> split(const std::string& s, char sep);

/// The statements of a `key = value` spec, each with the 1-based line it
/// is on. '#' comments run to end of *line* and are stripped first, so a
/// ';' inside prose never starts a phantom statement; then newlines and
/// ';' both end a statement, so inline one-liner specs work.
std::vector<std::pair<std::size_t, std::string>> statements(
    const std::string& text);

/// The spec text `arg` names: the contents of the file after a leading
/// '@', else `arg` itself. Throws std::runtime_error
/// "cannot read <what> file: <path>".
std::string spec_text(const std::string& arg, const std::string& what);

}  // namespace autopipe::parse
