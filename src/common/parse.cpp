#include "common/parse.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace autopipe::parse {

std::optional<double> number(std::string_view token) {
  double value = 0.0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || end != last || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(s);
  while (std::getline(is, item, sep)) out.push_back(item);
  return out;
}

std::vector<std::pair<std::size_t, std::string>> statements(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::string>> out;
  std::size_t line_no = 0;
  for (std::string chunk : split(text, '\n')) {
    ++line_no;
    const std::size_t hash = chunk.find('#');
    if (hash != std::string::npos) chunk.resize(hash);
    for (const std::string& stmt : split(chunk, ';'))
      out.emplace_back(line_no, stmt);
  }
  return out;
}

std::string spec_text(const std::string& arg, const std::string& what) {
  if (arg.empty() || arg[0] != '@') return arg;
  const std::string path = arg.substr(1);
  std::ifstream in(path);
  if (!in.good())
    throw std::runtime_error("cannot read " + what + " file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace autopipe::parse
