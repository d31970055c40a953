#include "util/cli_options.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

namespace cold {

CliOptions::CliOptions(std::string command, std::vector<OptionSpec> specs)
    : command_(std::move(command)), specs_(std::move(specs)) {}

const OptionSpec* CliOptions::find(const std::string& name) const {
  for (const OptionSpec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string CliOptions::valid_options() const {
  std::string out;
  for (const OptionSpec& spec : specs_) {
    if (!out.empty()) out += ", ";
    out += "--" + spec.name;
  }
  return out;
}

void CliOptions::parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg +
                                  " (options start with --)");
    }
    arg = arg.substr(2);
    std::string inline_value;
    bool has_inline = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      inline_value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline = true;
    }
    const OptionSpec* spec = find(arg);
    if (spec == nullptr) {
      throw std::invalid_argument("unknown option --" + arg + " for '" +
                                  command_ +
                                  "'; valid options: " + valid_options());
    }
    if (!spec->takes_value) {
      if (has_inline) {
        throw std::invalid_argument("option --" + arg +
                                    " is a flag and takes no value");
      }
      values_[arg] = "";
      continue;
    }
    if (has_inline) {
      values_[arg] = inline_value;
    } else if (i + 1 < argc) {
      values_[arg] = argv[++i];
    } else {
      throw std::invalid_argument("option --" + arg + " needs a value");
    }
  }
}

std::string CliOptions::get(const std::string& key,
                            const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double CliOptions::num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const last = text.data() + text.size();
  double value = 0.0;
  // Unlike stod, from_chars takes no leading space, '+' or hex; NaN and
  // infinities parse but are rejected below.
  const auto [end, ec] = std::from_chars(text.data(), last, value,
                                         std::chars_format::general);
  if (ec != std::errc() || end != last || !std::isfinite(value)) {
    throw std::invalid_argument("option --" + key +
                                " expects a finite number, got '" + text +
                                "'");
  }
  return value;
}

std::uint64_t CliOptions::uint(const std::string& key,
                               std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* const last = text.data() + text.size();
  std::uint64_t value = 0;
  // from_chars accepts no sign, space or exponent for integers; a leading
  // '-' or '+' fails here, and a '.', 'e' or 'n' stops it short of `last`.
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("option --" + key + " exceeds " +
                                std::to_string(UINT64_MAX) + ", got '" +
                                text + "'");
  }
  if (ec != std::errc() || end != last) {
    throw std::invalid_argument("option --" + key +
                                " expects a non-negative integer, got '" +
                                text + "'");
  }
  return value;
}

std::vector<OptionSpec> concat_specs(
    std::initializer_list<std::vector<OptionSpec>> groups) {
  std::vector<OptionSpec> out;
  for (const auto& group : groups) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

}  // namespace cold
