#include "src/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace wdmlat::obs {

namespace {

// 1-based line/column of a byte offset, for human-readable error positions.
void OffsetToLineColumn(std::string_view text, std::size_t offset, std::size_t* line,
                        std::size_t* column) {
  *line = 1;
  std::size_t line_start = 0;
  const std::size_t end = offset < text.size() ? offset : text.size();
  for (std::size_t i = 0; i < end; ++i) {
    if (text[i] == '\n') {
      ++*line;
      line_start = i + 1;
    }
  }
  *column = end - line_start + 1;
}

// UTF-8 encoding of one \uXXXX escape (a lone surrogate is encoded as-is).
void AppendUtf8(unsigned code, std::string* out) {
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonLintResult Run() {
    JsonLintResult result;
    SkipWhitespace();
    const bool is_object = !AtEnd() && Peek() == '{';
    if (!ParseValue(is_object ? &result.top_level_keys : nullptr)) {
      FillError(&result.error_offset, &result.error_line, &result.error_column,
                &result.error);
      return result;
    }
    SkipWhitespace();
    if (!AtEnd()) {
      Fail("trailing characters after JSON value");
      FillError(&result.error_offset, &result.error_line, &result.error_column,
                &result.error);
      return result;
    }
    result.valid = true;
    return result;
  }

  JsonParseResult RunDom() {
    JsonParseResult result;
    SkipWhitespace();
    if (!ParseValue(nullptr, &result.value)) {
      FillError(&result.error_offset, &result.error_line, &result.error_column,
                &result.error);
      return result;
    }
    SkipWhitespace();
    if (!AtEnd()) {
      Fail("trailing characters after JSON value");
      FillError(&result.error_offset, &result.error_line, &result.error_column,
                &result.error);
      return result;
    }
    result.valid = true;
    return result;
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  // Record the first failure at the current position; later failures keep
  // the original (innermost) position and message.
  bool Fail(std::string message) {
    if (error_.empty()) {
      error_ = std::move(message);
      error_pos_ = pos_;
    }
    return false;
  }
  void FillError(std::size_t* offset, std::size_t* line, std::size_t* column,
                 std::string* message) const {
    *offset = error_pos_;
    OffsetToLineColumn(text_, error_pos_, line, column);
    *message = error_;
  }

  void SkipWhitespace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' || Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) {
      return false;
    }
    ++pos_;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  // `keys` non-null only for the document's top-level object (lint mode);
  // `out` non-null to materialise the value (DOM mode).
  bool ParseValue(std::vector<std::string>* keys = nullptr, JsonValue* out = nullptr) {
    if (++depth_ > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWhitespace();
    if (AtEnd()) {
      --depth_;
      return Fail("unexpected end of input");
    }
    bool ok = false;
    switch (Peek()) {
      case '{':
        ok = ParseObject(keys, out);
        break;
      case '[':
        ok = ParseArray(out);
        break;
      case '"': {
        std::string text;
        ok = ParseString(out != nullptr ? &text : nullptr);
        if (ok && out != nullptr) {
          *out = JsonValue::String(std::move(text));
        }
        break;
      }
      case 't':
        ok = ConsumeLiteral("true");
        if (ok && out != nullptr) {
          *out = JsonValue::Bool(true);
        }
        break;
      case 'f':
        ok = ConsumeLiteral("false");
        if (ok && out != nullptr) {
          *out = JsonValue::Bool(false);
        }
        break;
      case 'n':
        ok = ConsumeLiteral("null");
        if (ok && out != nullptr) {
          *out = JsonValue::Null();
        }
        break;
      default:
        ok = ParseNumber(out);
        break;
    }
    --depth_;
    return ok;
  }

  bool ParseObject(std::vector<std::string>* keys, JsonValue* out) {
    std::vector<std::pair<std::string, JsonValue>> members;
    Consume('{');
    SkipWhitespace();
    if (Consume('}')) {
      if (out != nullptr) {
        *out = JsonValue::Object(std::move(members));
      }
      return true;
    }
    for (;;) {
      SkipWhitespace();
      const std::size_t key_pos = pos_;
      std::string key;
      if (AtEnd() || Peek() != '"' || !ParseString(&key)) {
        return Fail("expected string object key");
      }
      if (keys != nullptr) {
        keys->push_back(key);
      }
      if (out != nullptr) {
        // DOM mode rejects duplicates: last-wins lookup over hostile input
        // would let a corrupt (or crafted) record silently shadow a field.
        for (const auto& [existing, unused] : members) {
          if (existing == key) {
            pos_ = key_pos;
            return Fail("duplicate object key \"" + key + "\"");
          }
        }
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':' after object key");
      }
      JsonValue member;
      if (!ParseValue(nullptr, out != nullptr ? &member : nullptr)) {
        return false;
      }
      if (out != nullptr) {
        members.emplace_back(std::move(key), std::move(member));
      }
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        if (out != nullptr) {
          *out = JsonValue::Object(std::move(members));
        }
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    std::vector<JsonValue> items;
    Consume('[');
    SkipWhitespace();
    if (Consume(']')) {
      if (out != nullptr) {
        *out = JsonValue::Array(std::move(items));
      }
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!ParseValue(nullptr, out != nullptr ? &item : nullptr)) {
        return false;
      }
      if (out != nullptr) {
        items.push_back(std::move(item));
      }
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        if (out != nullptr) {
          *out = JsonValue::Array(std::move(items));
        }
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    Consume('"');
    for (;;) {
      if (AtEnd()) {
        return Fail("unterminated string");
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c == '\\') {
        ++pos_;
        if (AtEnd()) {
          return Fail("unterminated escape");
        }
        const char esc = text_[pos_++];
        char decoded = esc;
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            break;
          case 'b':
            decoded = '\b';
            break;
          case 'f':
            decoded = '\f';
            break;
          case 'n':
            decoded = '\n';
            break;
          case 'r':
            decoded = '\r';
            break;
          case 't':
            decoded = '\t';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              if (AtEnd() || !std::isxdigit(static_cast<unsigned char>(Peek()))) {
                return Fail("invalid \\u escape");
              }
              const char h = text_[pos_++];
              code = code * 16 + static_cast<unsigned>(
                                     std::isdigit(static_cast<unsigned char>(h))
                                         ? h - '0'
                                         : std::tolower(static_cast<unsigned char>(h)) - 'a' + 10);
            }
            if (out != nullptr) {
              AppendUtf8(code, out);
            }
            continue;
          }
          default:
            return Fail("invalid escape character");
        }
        if (out != nullptr) {
          out->push_back(decoded);
        }
        continue;
      }
      if (out != nullptr) {
        out->push_back(static_cast<char>(c));
      }
      ++pos_;
    }
  }

  bool ParseNumber(JsonValue* out = nullptr) {
    const std::size_t start = pos_;
    Consume('-');
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Fail("invalid number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required after decimal point");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
        ++pos_;
      }
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Fail("digit required in exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
    }
    if (pos_ <= start) {
      return false;
    }
    if (out != nullptr) {
      // The grammar above admits exactly the strtod subset, so conversion
      // cannot fail; the null-terminated copy is required by strtod. It can
      // still overflow double (e.g. 1e999) — DOM mode rejects that instead
      // of materialising an infinity no schema expects.
      const std::string text(text_.substr(start, pos_ - start));
      const double number = std::strtod(text.c_str(), nullptr);
      if (!std::isfinite(number)) {
        pos_ = start;
        return Fail("number overflows double: " + text);
      }
      *out = JsonValue::Number(number);
    }
    return true;
  }

  static constexpr int kMaxDepth = 64;

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t error_pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool JsonLintResult::HasTopLevelKey(std::string_view key) const {
  for (const std::string& k : top_level_keys) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

JsonLintResult LintJson(std::string_view text) { return Parser(text).Run(); }

const JsonValue* JsonValue::Find(std::string_view key) const {
  const JsonValue* found = nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) {
      found = &value;
    }
  }
  return found;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->as_number() : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_bool() ? value->as_bool() : fallback;
}

std::string JsonValue::StringOr(std::string_view key, std::string_view fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->as_string() : std::string(fallback);
}

bool ReadInteger(const JsonValue& value, std::string_view field, std::int64_t lo,
                 std::int64_t hi, std::int64_t* out, std::string* error) {
  const double number = value.as_number(std::nan(""));
  // The comparisons are false for NaN; lo and hi convert to double exactly.
  if (number >= static_cast<double>(lo) && number <= static_cast<double>(hi) &&
      std::trunc(number) == number) {
    *out = static_cast<std::int64_t>(number);
    return true;
  }
  if (error != nullptr) {
    *error = std::string(field) + " must be an integer in [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
  }
  return false;
}

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

JsonParseResult ParseJson(std::string_view text) { return Parser(text).RunDom(); }

}  // namespace wdmlat::obs
