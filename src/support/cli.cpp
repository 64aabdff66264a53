#include "support/cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace tamp {

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

CliParser& CliParser::option(const std::string& name,
                             const std::string& default_value,
                             const std::string& help) {
  TAMP_EXPECTS(!options_.count(name), "duplicate option: " + name);
  options_[name] = Option{default_value, help, false};
  order_.push_back(name);
  return *this;
}

CliParser& CliParser::flag(const std::string& name, const std::string& help) {
  TAMP_EXPECTS(!options_.count(name), "duplicate flag: " + name);
  options_[name] = Option{"false", help, true};
  order_.push_back(name);
  return *this;
}

CliParser& CliParser::positional(const std::string& name,
                                 const std::string& help) {
  TAMP_EXPECTS(!options_.count(name), "positional clashes with option: " + name);
  for (const auto& [n, h] : positionals_)
    TAMP_EXPECTS(n != name, "duplicate positional: " + name);
  positionals_.emplace_back(name, help);
  return *this;
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (const auto& [name, opt] : options_) values_[name] = opt.default_value;
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      TAMP_EXPECTS(next_positional < positionals_.size(),
                   "unexpected argument: " + arg);
      values_[positionals_[next_positional++].first] = arg;
      continue;
    }
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    auto it = options_.find(arg);
    TAMP_EXPECTS(it != options_.end(), "unknown option: --" + arg);
    if (it->second.is_flag) {
      values_[arg] = has_value ? value : "true";
    } else if (has_value) {
      values_[arg] = value;
    } else {
      TAMP_EXPECTS(i + 1 < argc, "option --" + arg + " expects a value");
      values_[arg] = argv[++i];
    }
  }
  TAMP_EXPECTS(next_positional == positionals_.size(),
               "missing argument: " +
                   (positionals_.empty()
                        ? std::string{}
                        : positionals_[next_positional].first));
  return true;
}

bool CliParser::parse_or_exit(int argc, const char* const* argv) {
  exit_on_error_ = true;
  try {
    return parse(argc, argv);
  } catch (const precondition_error& e) {
    fail(e.what());
  }
}

void CliParser::fail(const std::string& message) const {
  if (!exit_on_error_) throw precondition_error(message);
  std::fprintf(stderr, "error: %s (see --help)\n", message.c_str());
  std::exit(2);
}

const std::string& CliParser::get(const std::string& name) const {
  auto it = values_.find(name);
  TAMP_EXPECTS(it != values_.end(), "option not registered: " + name);
  return it->second;
}

long long CliParser::get_int(const std::string& name) const {
  // from_chars, unlike stoll, consumes no leading whitespace, never throws
  // out_of_range, and makes trailing garbage ("4x") an explicit error.
  const std::string& raw = get(name);
  const std::string_view v = detail::strip_plus(raw);
  long long out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec == std::errc::result_out_of_range)
    fail("option --" + name + " value out of range: '" + raw + "'");
  if (ec != std::errc{} || ptr != v.data() + v.size())
    fail("option --" + name + " expects an integer, got '" + raw + "'");
  return out;
}

double CliParser::get_double(const std::string& name) const {
  try {
    return parse_finite_double(get(name), "option --" + name);
  } catch (const precondition_error& e) {
    fail(e.what());
  }
}

bool CliParser::get_flag(const std::string& name) const {
  const std::string& v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string CliParser::help() const {
  std::ostringstream os;
  os << description_ << '\n';
  if (!positionals_.empty()) {
    os << "\nArguments:\n";
    for (const auto& [name, help_text] : positionals_)
      os << "  <" << name << ">\n      " << help_text << '\n';
  }
  os << "\nOptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help;
    if (!opt.is_flag) os << " (default: " << opt.default_value << ')';
    os << '\n';
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace tamp
