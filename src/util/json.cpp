#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ifsyn {

namespace {

/// Untrusted input: bound recursion so a deeply nested document cannot
/// blow the stack.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> parse() {
    Json value;
    IFSYN_RETURN_IF_ERROR(parse_value(value, 0));
    skip_ws();
    if (pos_ != text_.size()) return error("trailing characters");
    return value;
  }

 private:
  Status error(const std::string& what) const {
    return invalid_argument("json: " + what + " at offset " +
                            std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      std::string s;
      IFSYN_RETURN_IF_ERROR(parse_string(s));
      out = Json(std::move(s));
      return Status::ok();
    }
    if (consume_word("true")) {
      out = Json(true);
      return Status::ok();
    }
    if (consume_word("false")) {
      out = Json(false);
      return Status::ok();
    }
    if (consume_word("null")) {
      out = Json(nullptr);
      return Status::ok();
    }
    return parse_number(out);
  }

  Status parse_object(Json& out, int depth) {
    consume('{');
    JsonObject object;
    skip_ws();
    if (consume('}')) {
      out = Json(std::move(object));
      return Status::ok();
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return error("expected object key");
      }
      std::string key;
      IFSYN_RETURN_IF_ERROR(parse_string(key));
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      Json value;
      IFSYN_RETURN_IF_ERROR(parse_value(value, depth + 1));
      object[std::move(key)] = std::move(value);  // last duplicate wins
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      return error("expected ',' or '}'");
    }
    out = Json(std::move(object));
    return Status::ok();
  }

  Status parse_array(Json& out, int depth) {
    consume('[');
    JsonArray array;
    skip_ws();
    if (consume(']')) {
      out = Json(std::move(array));
      return Status::ok();
    }
    while (true) {
      Json value;
      IFSYN_RETURN_IF_ERROR(parse_value(value, depth + 1));
      array.push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      return error("expected ',' or ']'");
    }
    out = Json(std::move(array));
    return Status::ok();
  }

  /// Four hex digits of a \uXXXX escape.
  Status parse_hex4(unsigned& out) {
    out = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return error("truncated \\u escape");
      const char h = text_[pos_];
      unsigned digit = 0;
      if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') digit = static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') digit = static_cast<unsigned>(h - 'A' + 10);
      else return error("non-hex digit in \\u escape");
      out = out * 16 + digit;
      ++pos_;
    }
    return Status::ok();
  }

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status parse_string(std::string& out) {
    consume('"');
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return error("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          IFSYN_RETURN_IF_ERROR(parse_hex4(code));
          if (code >= 0xDC00 && code <= 0xDFFF) {
            return error("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if (text_.substr(pos_, 2) != "\\u") {
              return error("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            unsigned low = 0;
            IFSYN_RETURN_IF_ERROR(parse_hex4(low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return error("high surrogate not followed by a low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default:
          return error(std::string("unknown escape \\") + esc);
      }
    }
  }

  Status parse_number(Json& out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return error("unexpected character");
    const std::string token(text_.substr(start, pos_ - start));
    // strtod is laxer than JSON: it accepts a leading '+', which the
    // grammar forbids.
    if (token[0] != '-' && (token[0] < '0' || token[0] > '9')) {
      pos_ = start;
      return error("bad number");
    }
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      return error("bad number");
    }
    out = Json(value);
    return Status::ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void dump_to(const Json& value, std::string& out) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      out += "null";
      return;
    case Json::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case Json::Kind::kNumber: {
      const double n = value.as_number();
      // Integers (the common case: ids, counts, microseconds) print
      // without a decimal point so responses are stable and compact.
      if (n == std::floor(n) && std::fabs(n) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(n));
        out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", n);
        out += buf;
      }
      return;
    }
    case Json::Kind::kString:
      out += json_quote(value.as_string());
      return;
    case Json::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : value.as_array()) {
        if (!first) out += ',';
        first = false;
        dump_to(item, out);
      }
      out += ']';
      return;
    }
    case Json::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, member] : value.as_object()) {
        if (!first) out += ',';
        first = false;
        out += json_quote(key);
        out += ':';
        dump_to(member, out);
      }
      out += '}';
      return;
    }
  }
}

}  // namespace

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const JsonObject& object = as_object();
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string Json::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

Result<Json> parse_json(std::string_view text) {
  return Parser(text).parse();
}

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace ifsyn
