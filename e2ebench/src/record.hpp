// One JSON object per stdout line: the channel from the benchmark binary
// to run.py. Every line is flushed as it is written, so a run that is
// killed mid-way has already handed over everything it completed.
#pragma once

#include <cmath>
#include <cstdio>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/export.hpp"

namespace e2e {

class Record {
public:
  explicit Record(std::string_view event) {
    os_ << "{\"event\":\"" << event << '"';
  }

  Record& num(std::string_view key, double v) {
    key_(key);
    number_(v);
    return *this;
  }
  Record& integer(std::string_view key, long long v) {
    key_(key);
    os_ << v;
    return *this;
  }
  Record& flag(std::string_view key, bool v) {
    key_(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Record& str(std::string_view key, std::string_view v) {
    key_(key);
    os_ << '"' << tamp::obs::json_escape(v) << '"';
    return *this;
  }
  Record& nums(std::string_view key, std::span<const double> values) {
    key_(key);
    os_ << '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) os_ << ',';
      number_(values[i]);
    }
    os_ << ']';
    return *this;
  }

  void emit() {
    os_ << "}\n";
    std::cout << os_.str() << std::flush;
  }

private:
  void key_(std::string_view key) { os_ << ",\"" << key << "\":"; }
  // All digits (%.17g); JSON has no NaN or infinity, so those become null.
  void number_(double v) {
    if (!std::isfinite(v)) {
      os_ << "null";
      return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
  }

  std::ostringstream os_;
};

}  // namespace e2e
