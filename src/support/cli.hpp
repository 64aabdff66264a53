// Tiny command-line option parser for bench and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--flag` forms,
// generates --help text, and validates that every argument was consumed.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/check.hpp"

namespace tamp {

namespace detail {

/// std::from_chars rejects an explicit '+' sign; accept it here (it is
/// common on the command line) by skipping it when a digit or '.' follows.
[[nodiscard]] inline std::string_view strip_plus(std::string_view v) {
  if (v.size() > 1 && v.front() == '+' &&
      (std::isdigit(static_cast<unsigned char>(v[1])) != 0 || v[1] == '.'))
    v.remove_prefix(1);
  return v;
}

}  // namespace detail

/// Parse all of `text` as a finite decimal number, optionally signed ('+'
/// or '-'), with nothing before or after it. Throws precondition_error
/// naming `what` for anything else: trailing text, nan, inf, or a value
/// outside the range of double. Inline because obs/, which support/
/// links, parses with it too (obs/report.hpp parse_regression_rule).
[[nodiscard]] inline double parse_finite_double(const std::string& text,
                                                const std::string& what) {
  const std::string_view v = detail::strip_plus(text);
  double out = 0.0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::result_out_of_range)
    throw precondition_error(what + " value out of range: '" + text + "'");
  // from_chars also reads nan and inf, which no caller wants.
  if (ec != std::errc{} || ptr != v.data() + v.size() || !std::isfinite(out))
    throw precondition_error(what + " expects a finite number, got '" + text +
                             "'");
  return out;
}

/// Declarative CLI option set. Register options, then parse(argc, argv).
class CliParser {
public:
  explicit CliParser(std::string program_description);

  /// Register an option with a default value (all values held as strings).
  CliParser& option(const std::string& name, const std::string& default_value,
                    const std::string& help);

  /// Register a boolean flag (defaults to false).
  CliParser& flag(const std::string& name, const std::string& help);

  /// Register a required positional argument. Positionals are filled in
  /// registration order by the bare (non `--`) arguments and retrieved
  /// with get() like any option; parse() throws when one is missing.
  CliParser& positional(const std::string& name, const std::string& help);

  /// Parse. Returns false (after printing help) when --help is present.
  /// Throws precondition_error for unknown or malformed options.
  bool parse(int argc, const char* const* argv);

  /// parse() for a program's main: an unknown or malformed option — or,
  /// later, a value get_int()/get_double() cannot read — prints the
  /// error to stderr and exits with status 2 instead of throwing.
  bool parse_or_exit(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Render the --help text.
  [[nodiscard]] std::string help() const;

private:
  /// Throw precondition_error(message), or print it and exit(2) after
  /// parse_or_exit().
  [[noreturn]] void fail(const std::string& message) const;

  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };
  std::string description_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, std::string>> positionals_;  ///< name, help
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  bool exit_on_error_ = false;
};

}  // namespace tamp
