#include "opto/util/json_parse.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "opto/util/json.hpp"

namespace opto {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members)
    if (name == key) found = &value;
  return found;
}

double JsonValue::as_number(double fallback) const {
  return kind == Kind::Number ? number : fallback;
}

std::string JsonValue::as_string(std::string fallback) const {
  return kind == Kind::String ? text : fallback;
}

double JsonValue::number_at(std::string_view key, double fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_number(fallback) : fallback;
}

std::string JsonValue::string_at(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* member = find(key);
  return member != nullptr ? member->as_string(std::move(fallback)) : fallback;
}

JsonValue JsonValue::make_object() {
  JsonValue value;
  value.kind = Kind::Object;
  return value;
}

JsonValue JsonValue::make_array() {
  JsonValue value;
  value.kind = Kind::Array;
  return value;
}

JsonValue JsonValue::of(double number) {
  JsonValue value;
  value.kind = Kind::Number;
  value.number = number;
  return value;
}

JsonValue JsonValue::of(std::string_view text) {
  JsonValue value;
  value.kind = Kind::String;
  value.text = std::string(text);
  return value;
}

JsonValue JsonValue::of(bool boolean) {
  JsonValue value;
  value.kind = Kind::Bool;
  value.boolean = boolean;
  return value;
}

JsonValue& JsonValue::add_member(std::string_view key, JsonValue value) {
  members.emplace_back(std::string(key), std::move(value));
  return *this;
}

namespace {

constexpr int kMaxDepth = 128;

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<JsonValue> run() {
    skip_whitespace();
    JsonValue value;
    if (!parse_value(value, 0)) return std::nullopt;
    skip_whitespace();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const char* message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = "JSON parse error at byte " + std::to_string(pos_) + ": " +
                message;
    }
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char expected, const char* message) {
    if (pos_ >= text_.size() || text_[pos_] != expected) return fail(message);
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind = JsonValue::Kind::String;
        return parse_string(out.text);
      case 't':
      case 'f':
        return parse_keyword(out);
      case 'n':
        return parse_keyword(out);
      default:
        return parse_number(out);
    }
  }

  bool parse_keyword(JsonValue& out) {
    const std::string_view rest = text_.substr(pos_);
    if (rest.substr(0, 4) == "true") {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = true;
      pos_ += 4;
      return true;
    }
    if (rest.substr(0, 5) == "false") {
      out.kind = JsonValue::Kind::Bool;
      out.boolean = false;
      pos_ += 5;
      return true;
    }
    if (rest.substr(0, 4) == "null") {
      out.kind = JsonValue::Kind::Null;
      pos_ += 4;
      return true;
    }
    return fail("invalid literal");
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      return fail("malformed number");
    }
    out.kind = JsonValue::Kind::Number;
    out.number = value;
    out.text = token;
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"', "expected '\"'")) return false;
    out.clear();
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t code = 0;
          if (!parse_hex4(code)) return false;
          // Surrogate pair handling for characters beyond the BMP.
          if (code >= 0xd800 && code <= 0xdbff) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              std::uint32_t low = 0;
              if (!parse_hex4(low)) return false;
              if (low >= 0xdc00 && low <= 0xdfff)
                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
              else
                return fail("invalid low surrogate");
            } else {
              return fail("lone high surrogate");
            }
          } else if (code >= 0xdc00 && code <= 0xdfff) {
            return fail("lone low surrogate");
          }
          append_utf8(out, code);
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    if (!consume('{', "expected '{'")) return false;
    out.kind = JsonValue::Kind::Object;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':', "expected ':'")) return false;
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}', "expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    if (!consume('[', "expected '['")) return false;
    out.kind = JsonValue::Kind::Array;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items.push_back(std::move(value));
      skip_whitespace();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']', "expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

void write_number(std::ostream& os, double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
    os << buffer;
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

void write_value(std::ostream& os, const JsonValue& value, bool sorted_keys) {
  switch (value.kind) {
    case JsonValue::Kind::Null:
      os << "null";
      return;
    case JsonValue::Kind::Bool:
      os << (value.boolean ? "true" : "false");
      return;
    case JsonValue::Kind::Number:
      write_number(os, value.number);
      return;
    case JsonValue::Kind::String:
      os << '"' << JsonWriter::escape(value.text) << '"';
      return;
    case JsonValue::Kind::Array: {
      os << '[';
      for (std::size_t i = 0; i < value.items.size(); ++i) {
        if (i > 0) os << ',';
        write_value(os, value.items[i], sorted_keys);
      }
      os << ']';
      return;
    }
    case JsonValue::Kind::Object: {
      os << '{';
      if (sorted_keys) {
        std::vector<const std::pair<std::string, JsonValue>*> order;
        order.reserve(value.members.size());
        for (const auto& member : value.members) order.push_back(&member);
        std::stable_sort(order.begin(), order.end(),
                         [](const auto* a, const auto* b) {
                           return a->first < b->first;
                         });
        for (std::size_t i = 0; i < order.size(); ++i) {
          if (i > 0) os << ',';
          os << '"' << JsonWriter::escape(order[i]->first) << "\":";
          write_value(os, order[i]->second, sorted_keys);
        }
      } else {
        for (std::size_t i = 0; i < value.members.size(); ++i) {
          if (i > 0) os << ',';
          os << '"' << JsonWriter::escape(value.members[i].first) << "\":";
          write_value(os, value.members[i].second, sorted_keys);
        }
      }
      os << '}';
      return;
    }
  }
}

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
  if (error != nullptr) error->clear();
  Parser parser(text, error);
  return parser.run();
}

void write_json(std::ostream& os, const JsonValue& value, bool sorted_keys) {
  write_value(os, value, sorted_keys);
}

}  // namespace opto
