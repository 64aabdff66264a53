#include "obs/json.hpp"

#include <charconv>
#include <string>

#include "support/check.hpp"

namespace tamp::obs {

namespace {

/// Recursive-descent parser over a string_view with position tracking.
class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& what) const {
    throw runtime_failure("JSON parse error at byte " + std::to_string(pos_) +
                          ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        return JsonValue();
      default: return JsonValue(parse_number());
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(members));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(members));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape character");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    // Surrogate pairs: a high surrogate must be followed by \uDC00-\uDFFF.
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 6 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("unpaired high surrogate");
      pos_ += 2;
      unsigned lo = 0;
      for (int i = 0; i < 4; ++i) {
        const char c = text_[pos_++];
        lo <<= 4;
        if (c >= '0' && c <= '9') lo |= static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') lo |= static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') lo |= static_cast<unsigned>(c - 'A' + 10);
        else fail("invalid hex digit in \\u escape");
      }
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    // Encode as UTF-8.
    std::string out;
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
    return out;
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?
  /// whose value fits a double.
  double parse_number() {
    const std::size_t start = pos_;
    // Consume one byte of `set`; false when the next byte is not in it.
    const auto accept = [this](std::string_view set) {
      if (pos_ >= text_.size() || set.find(text_[pos_]) == set.npos)
        return false;
      ++pos_;
      return true;
    };
    // Consume one or more digits; false when there is none.
    const auto digits = [this] {
      const std::size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
      return pos_ > from;
    };
    accept("-");
    bool ok = accept("0") || digits();
    if (ok && accept(".")) ok = digits();
    if (ok && accept("eE")) {
      accept("+-");
      ok = digits();
    }
    if (!ok) fail(pos_ == start ? "invalid value" : "malformed number");
    const std::string_view token = text_.substr(start, pos_ - start);
    double v = 0.0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc{} || ptr != token.data() + token.size()) {
      pos_ = start;
      fail("number out of range '" + std::string(token) + "'");
    }
    return v;
  }

  /// Arrays and objects recurse once per level, so a deep document would
  /// overflow the stack before it ran out of input. The committed
  /// snapshots nest 3 levels deep.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around pos_
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::boolean) throw runtime_failure("JSON value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::number) throw runtime_failure("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::string) throw runtime_failure("JSON value is not a string");
  return string_;
}

const JsonValue::Array& JsonValue::as_array() const {
  if (kind_ != Kind::array) throw runtime_failure("JSON value is not an array");
  return array_;
}

const JsonValue::Object& JsonValue::as_object() const {
  if (kind_ != Kind::object) throw runtime_failure("JSON value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::object) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

}  // namespace tamp::obs
