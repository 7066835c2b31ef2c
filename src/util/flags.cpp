#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <stdexcept>

namespace tvviz::util {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      stray_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag acts as boolean
    }
  }
}

bool Flags::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) != 0;
}

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// The whole of `text` as a T, or std::invalid_argument naming the flag.
template <typename T>
T parse_number(const std::string& name, const std::string& text,
               const char* kind) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end)
    throw std::invalid_argument("--" + name + ": '" + text + "' is not " +
                                kind);
  return value;
}

}  // namespace

std::int64_t Flags::get_int(const std::string& name, std::int64_t fallback) const {
  const auto s = get(name, "");
  if (s.empty()) return fallback;
  return parse_number<std::int64_t>(name, s, "an integer");
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto s = get(name, "");
  if (s.empty()) return fallback;
  return parse_number<double>(name, s, "a number");
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const auto s = get_choice(
      name, "", {"1", "true", "yes", "on", "0", "false", "no", "off"});
  if (s.empty()) return fallback;
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

std::string Flags::get_choice(const std::string& name,
                              const std::string& fallback,
                              const std::vector<std::string>& choices) const {
  const auto s = get(name, "");
  if (s.empty()) return fallback;
  if (std::find(choices.begin(), choices.end(), s) != choices.end()) return s;
  std::string listed;
  for (const auto& choice : choices)
    listed += (listed.empty() ? "" : "|") + choice;
  throw std::invalid_argument("--" + name + ": '" + s + "' is not one of " +
                              listed);
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> result;
  for (const auto& [name, _] : values_)
    if (!queried_.count(name)) result.push_back("--" + name);
  result.insert(result.end(), stray_.begin(), stray_.end());
  return result;
}

void Flags::reject_unused() const {
  std::string names;
  for (const auto& arg : unused()) names += (names.empty() ? "" : ", ") + arg;
  if (!names.empty()) throw UsageError("unknown argument " + names);
}

}  // namespace tvviz::util
