// Strict command-line option parsing for the cold tools.
//
// Each subcommand declares the exact set of options it accepts (OptionSpec);
// parsing rejects anything outside that set with an error that lists the
// valid options, instead of silently ignoring a typo like `--generation`.
// Both `--key value` and `--key=value` spellings are accepted; options with
// takes_value == false are boolean flags (`--progress`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace cold {

struct OptionSpec {
  std::string name;        ///< without the leading "--"
  bool takes_value = true; ///< false = boolean flag
  std::string help;        ///< short value hint, e.g. "N (30)"
};

/// Parsed options of one subcommand invocation.
class CliOptions {
 public:
  CliOptions(std::string command, std::vector<OptionSpec> specs);

  /// Parses argv[first..argc). Throws std::invalid_argument on an option
  /// not in the spec list (message names every valid option), a missing
  /// value, a value handed to a flag, or a stray positional argument.
  void parse(int argc, const char* const* argv, int first);

  const std::string& command() const { return command_; }
  const std::vector<OptionSpec>& specs() const { return specs_; }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::string get(const std::string& key, const std::string& fallback) const;

  /// Finite decimal number option, the whole value parsed exactly. Throws
  /// std::invalid_argument on anything else — padding, hex, NaN,
  /// infinities, overflow or trailing text.
  double num(const std::string& key, double fallback) const;

  /// Non-negative integer option (counts, sizes, seeds): plain decimal
  /// digits over the full uint64_t range, parsed exactly. Throws
  /// std::invalid_argument on anything else — fractions, NaN, signs,
  /// exponents, an empty value, or overflow.
  std::uint64_t uint(const std::string& key, std::uint64_t fallback) const;

  /// "--a, --b, --c" — used in error messages and usage text.
  std::string valid_options() const;

 private:
  const OptionSpec* find(const std::string& name) const;

  std::string command_;
  std::vector<OptionSpec> specs_;
  std::map<std::string, std::string> values_;
};

/// Concatenates spec lists (shared groups + per-command extras).
std::vector<OptionSpec> concat_specs(
    std::initializer_list<std::vector<OptionSpec>> groups);

}  // namespace cold
