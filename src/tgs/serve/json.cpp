#include "tgs/serve/json.h"

#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace tgs {

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(const std::string& key,
                                  const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_string())
    throw std::invalid_argument("field '" + key + "' must be a string");
  return v->as_string();
}

std::string JsonValue::take_string(const std::string& key,
                                   const std::string& fallback) {
  if (type_ != Type::kObject) return fallback;
  const auto it = obj_.find(key);
  if (it == obj_.end() || it->second.is_null()) return fallback;
  if (!it->second.is_string())
    throw std::invalid_argument("field '" + key + "' must be a string");
  return std::move(it->second.str_);
}

double JsonValue::get_number(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number())
    throw std::invalid_argument("field '" + key + "' must be a number");
  return v->as_number();
}

bool JsonValue::get_bool(const std::string& key, bool fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool())
    throw std::invalid_argument("field '" + key + "' must be a boolean");
  return v->as_bool();
}

// Not in an anonymous namespace: JsonValue friends this exact name.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': parse_object(v); break;
      case '[': parse_array(v); break;
      case '"':
        v.type_ = JsonValue::Type::kString;
        v.str_ = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.type_ = JsonValue::Type::kBool;
        v.bool_ = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.type_ = JsonValue::Type::kNull;
        break;
      default:
        v.type_ = JsonValue::Type::kNumber;
        v.num_ = parse_number();
        break;
    }
    --depth_;
    return v;
  }

  void parse_object(JsonValue& v) {
    v.type_ = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.obj_[std::move(key)] = parse_value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonValue& v) {
    v.type_ = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.arr_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  // A string is decoded in two steps. memchr finds its closing quote: the
  // first '"' behind an even run of backslashes (or the end of the text).
  // The decoded text is never longer than the raw, so `out` is sized to
  // the raw span once, and plain runs are copied a word at a time: a word
  // is stored whole and the write position advances past its plain bytes
  // only, so a `\n` escape every ~16 bytes costs no append call. Errors
  // are raised at the byte the per-byte scan would raise them at.
  std::string parse_string() {
    expect('"');
    const char* const text = text_.data();
    const std::size_t close = closing_quote(pos_);
    std::string out(close - pos_, '\0');
    char* const first = out.data();
    char* dst = first;
    // A local cursor: the stores through `dst` may alias pos_, so the
    // loops below would otherwise reload it after every byte they write.
    std::size_t at = pos_;
    for (;;) {
      while (at + 8 <= close) {
        std::uint64_t w;
        std::memcpy(&w, text + at, 8);
        std::memcpy(dst, &w, 8);  // dst + 8 <= first + out.size()
        const std::uint64_t special = special_bytes(w);
        if (special == 0) {
          at += 8;
          dst += 8;
          continue;
        }
        const std::size_t plain =
            static_cast<std::size_t>(std::countr_zero(special)) / 8;
        at += plain;
        dst += plain;
        break;
      }
      // The word loop stopped at a special byte or within 8 of `close`.
      while (at < close && !is_special(text[at])) *dst++ = text[at++];
      if (at == close) break;
      pos_ = at;
      if (static_cast<unsigned char>(text[at]) < 0x20)
        fail("unescaped control character in string");
      ++pos_;  // backslash
      const char e = peek();
      if (const char c = kUnescaped[static_cast<unsigned char>(e)]) {
        *dst++ = c;
        at = pos_ + 1;
        continue;
      }
      if (e != 'u') fail("invalid escape");
      ++pos_;
      unsigned cp = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = peek();
        unsigned d;
        if (h >= '0' && h <= '9') d = static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f') d = static_cast<unsigned>(h - 'a') + 10;
        else if (h >= 'A' && h <= 'F') d = static_cast<unsigned>(h - 'A') + 10;
        else fail("invalid \\u escape");
        cp = cp * 16 + d;
        ++pos_;
      }
      dst = put_utf8(dst, cp);  // at most 3 bytes for 6 raw ones
      at = pos_;
    }
    pos_ = at;
    if (close == text_.size()) fail("unterminated string");
    ++pos_;
    out.resize(static_cast<std::size_t>(dst - first));
    return out;
  }

  /// The byte a one-letter escape stands for, indexed by the letter; 0 for
  /// "\\u" and the letters that are no escape.
  static constexpr std::array<char, 256> kUnescaped = [] {
    std::array<char, 256> t{};
    t['"'] = '"';
    t['\\'] = '\\';
    t['/'] = '/';
    t['b'] = '\b';
    t['f'] = '\f';
    t['n'] = '\n';
    t['r'] = '\r';
    t['t'] = '\t';
    return t;
  }();

  /// Offset of the '"' that ends the string body starting at `from`, or
  /// the text's size when the string is unterminated. A '"' behind an odd
  /// run of backslashes is escaped: the `\uXXXX` escape, the only one
  /// longer than two bytes, cannot contain '"' or '\\' without failing
  /// before the decoder reaches them.
  std::size_t closing_quote(std::size_t from) const {
    const char* const text = text_.data();
    const std::size_t size = text_.size();
    for (std::size_t at = from; at < size; ++at) {
      const void* q = std::memchr(text + at, '"', size - at);
      if (q == nullptr) break;
      at = static_cast<std::size_t>(static_cast<const char*>(q) - text);
      std::size_t run = at;
      while (run > from && text[run - 1] == '\\') --run;
      if ((at - run) % 2 == 0) return at;
    }
    return size;
  }

  static bool is_special(char c) {
    return c == '\\' || static_cast<unsigned char>(c) < 0x20;
  }

  /// Bit 8k+7 set for the bytes k of `w` that are '\\' or below 0x20
  /// (SWAR; bits above the lowest true one may be spurious).
  static std::uint64_t special_bytes(std::uint64_t w) {
    static_assert(std::endian::native == std::endian::little,
                  "the lowest set bit must be the first byte in memory");
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
    const std::uint64_t bs = w ^ (kOnes * '\\');
    return ((bs - kOnes) & ~bs & kHigh) | ((w - kOnes * 0x20) & ~w & kHigh);
  }

  static char* put_utf8(char* dst, unsigned cp) {
    if (cp < 0x80) {
      *dst++ = static_cast<char>(cp);
    } else if (cp < 0x800) {
      *dst++ = static_cast<char>(0xc0 | (cp >> 6));
      *dst++ = static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      *dst++ = static_cast<char>(0xe0 | (cp >> 12));
      *dst++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      *dst++ = static_cast<char>(0x80 | (cp & 0x3f));
    }
    return dst;
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("invalid number");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    return std::strtod(text_.c_str() + start, nullptr);
  }

  static constexpr int kMaxDepth = 64;
  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

JsonValue json_parse(const std::string& text) {
  JsonParser p(text);
  return p.parse_document();
}

}  // namespace tgs
