// Tiny command-line flag parser for the benchmark harnesses and examples.
// Accepts --name=value and --name value; unknown flags and stray words are
// reported, and a value its reader does not accept (a number with trailing
// junk, or a word outside a boolean or choice flag's list) is an error.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace tvviz::util {

/// A command line the program cannot honour (Flags::reject_unused); the
/// programs exit 2 on it.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Throw std::invalid_argument naming the flag when its value is not
  /// entirely a (decimal) number.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// 1/true/yes/on or 0/false/no/off; any other word throws
  /// std::invalid_argument naming the flag.
  bool get_bool(const std::string& name, bool fallback) const;
  /// The value, which must be one of `choices`; throws std::invalid_argument
  /// naming the flag and listing the choices otherwise.
  std::string get_choice(const std::string& name, const std::string& fallback,
                         const std::vector<std::string>& choices) const;

  /// What the command line holds that nothing read, as written there: each
  /// flag never queried ("--typo"), then each word that is neither a flag
  /// nor a flag's value ("-size", or the "32" of "--size 16 32"), in order.
  std::vector<std::string> unused() const;

  /// Throw UsageError("unknown argument --typo, 32") unless unused() is
  /// empty. Call once every flag is read and before any work: a flag never
  /// read is a typo or belongs to another program, a stray word is a typo
  /// or a value too many, and running on would silently ignore either.
  void reject_unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> stray_;
};

}  // namespace tvviz::util
