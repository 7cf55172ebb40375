// Minimal command-line flag parsing for the CLI tools: --key=value and
// --key value forms, typed getters with defaults, and unknown-flag
// diagnostics. Deliberately tiny — the tools have a dozen flags, not a
// configuration language.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace autopipe {

class Flags {
 public:
  /// Parse argv. Throws contract_error on malformed input (missing value,
  /// non-flag positional argument).
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name,
                  const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// A count: get_int that also rejects a negative value, naming the flag.
  std::size_t get_count(const std::string& name, std::size_t fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Flags that were provided but never queried — typo detection for tools
  /// that call it after reading everything they understand.
  std::vector<std::string> unused() const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace autopipe
