#include "common/flags.hpp"

#include "common/expect.hpp"
#include "common/parse.hpp"

namespace autopipe {

Flags::Flags(int argc, const char* const* argv) {
  AUTOPIPE_EXPECT(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    AUTOPIPE_EXPECT_MSG(arg.rfind("--", 0) == 0,
                        "expected --flag, got '" << arg << "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse::number(it->second);
  AUTOPIPE_EXPECT_MSG(v.has_value(), "--" << name
                                          << " expects a finite number, got '"
                                          << it->second << "'");
  return *v;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto v = parse::integer<std::int64_t>(it->second);
  AUTOPIPE_EXPECT_MSG(v.has_value(), "--" << name
                                          << " expects an integer, got '"
                                          << it->second << "'");
  return *v;
}

std::size_t Flags::get_count(const std::string& name,
                             std::size_t fallback) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  AUTOPIPE_EXPECT_MSG(
      v >= 0, "--" << name << " expects a non-negative integer, got " << v);
  return static_cast<std::size_t>(v);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

}  // namespace autopipe
