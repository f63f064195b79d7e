#include "ruby/io/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <unordered_set>

#include "ruby/common/error.hpp"

namespace ruby
{

namespace
{

/** Recursive-descent parser over a string_view with offset errors. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        skipWs();
        JsonValue v = parseValue(0);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *what) const
    {
        RUBY_FATAL("json: ", what, " at byte ", pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(std::string_view lit)
    {
        if (text_.substr(pos_, lit.size()) != lit)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > kMaxJsonDepth)
            fail("nesting too deep");
        switch (peek()) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return JsonValue::makeString(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue::makeBool(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue::makeBool(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue::makeNull();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject(int depth)
    {
        expect('{');
        JsonValue out = JsonValue::makeObject();
        std::unordered_set<std::string> keys; // linear duplicate check
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return out;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                fail("expected a string key");
            std::string key = parseString();
            if (!keys.insert(key).second)
                fail("duplicate object key");
            skipWs();
            expect(':');
            skipWs();
            out.object.emplace_back(std::move(key),
                                    parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return out;
        }
    }

    JsonValue
    parseArray(int depth)
    {
        expect('[');
        JsonValue out = JsonValue::makeArray();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        for (;;) {
            skipWs();
            out.array.push_back(parseValue(depth + 1));
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return out;
        }
    }

    /** Append one code point as UTF-8. */
    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    unsigned
    parseHex4()
    {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape");
            ++pos_;
        }
        return v;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                unsigned cp = parseHex4();
                // Surrogate pair.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (!consumeLiteral("\\u"))
                        fail("unpaired surrogate");
                    const unsigned lo = parseHex4();
                    if (lo < 0xDC00 || lo > 0xDFFF)
                        fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!scanJsonNumber(text_, pos_))
            fail("invalid number");
        JsonValue out;
        out.type = JsonType::Number;
        out.number.assign(text_.substr(start, pos_ - start));
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

const char *
typeName(JsonType t)
{
    switch (t) {
      case JsonType::Null:   return "null";
      case JsonType::Bool:   return "bool";
      case JsonType::Number: return "number";
      case JsonType::String: return "string";
      case JsonType::Array:  return "array";
      case JsonType::Object: return "object";
    }
    return "?";
}

void
writeEscaped(std::string &out, std::string_view s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out.push_back(hex[(c >> 4) & 0xF]);
                out.push_back(hex[c & 0xF]);
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
writeValue(std::string &out, const JsonValue &v)
{
    switch (v.type) {
      case JsonType::Null:
        out += "null";
        break;
      case JsonType::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case JsonType::Number:
        out += v.number;
        break;
      case JsonType::String:
        writeEscaped(out, v.string);
        break;
      case JsonType::Array: {
        out.push_back('[');
        bool first = true;
        for (const JsonValue &e : v.array) {
            if (!first)
                out.push_back(',');
            first = false;
            writeValue(out, e);
        }
        out.push_back(']');
        break;
      }
      case JsonType::Object: {
        out.push_back('{');
        bool first = true;
        for (const auto &member : v.object) {
            if (!first)
                out.push_back(',');
            first = false;
            writeEscaped(out, member.first);
            out.push_back(':');
            writeValue(out, member.second);
        }
        out.push_back('}');
        break;
      }
    }
}

/** A Number's token parsed exactly as @p Int: no fraction, exponent
 *  or '+', no overflow, and '-' only for a signed @p Int. */
template <typename Int>
Int
integerOf(const JsonValue &v, const char *what)
{
    RUBY_CHECK(v.type == JsonType::Number, v.where(),
               ": expected number, got ", typeName(v.type));
    Int out = 0;
    const char *first = v.number.data();
    const char *last = first + v.number.size();
    const auto res = std::from_chars(first, last, out);
    RUBY_CHECK(res.ec == std::errc() && res.ptr == last, v.where(), ": '",
               v.number, "' is not ", what);
    return out;
}

} // namespace

bool
scanJsonNumber(std::string_view text, std::size_t &pos)
{
    auto at = [&](char c) { return pos < text.size() && text[pos] == c; };
    auto digits = [&] {
        const std::size_t start = pos;
        while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9')
            ++pos;
        return pos > start;
    };
    if (at('-'))
        ++pos;
    if (!digits())
        return false;
    if (at('.')) {
        ++pos;
        if (!digits())
            return false;
    }
    if (at('e') || at('E')) {
        ++pos;
        if (at('+') || at('-'))
            ++pos;
        if (!digits())
            return false;
    }
    return true;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue{};
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out.type = JsonType::Bool;
    out.boolean = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string_view v)
{
    JsonValue out;
    out.type = JsonType::String;
    out.string.assign(v);
    return out;
}

JsonValue
JsonValue::makeU64(std::uint64_t v)
{
    JsonValue out;
    out.type = JsonType::Number;
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.number.assign(buf, res.ptr);
    return out;
}

JsonValue
JsonValue::makeI64(std::int64_t v)
{
    JsonValue out;
    out.type = JsonType::Number;
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.number.assign(buf, res.ptr);
    return out;
}

JsonValue
JsonValue::makeDouble(double v)
{
    JsonValue out;
    out.type = JsonType::Number;
    if (std::isnan(v)) {
        out.type = JsonType::Null;
        return out;
    }
    if (std::isinf(v)) {
        // JSON has no infinity; 1e999 overflows any binary64 reader
        // back to infinity, preserving the round trip.
        out.number = v > 0 ? "1e999" : "-1e999";
        return out;
    }
    char buf[40];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.number.assign(buf, res.ptr);
    return out;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue out;
    out.type = JsonType::Array;
    return out;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue out;
    out.type = JsonType::Object;
    return out;
}

JsonValue &
JsonValue::set(std::string_view key, JsonValue v)
{
    RUBY_ASSERT(type == JsonType::Object,
                "set() on a non-object JSON value");
    object.emplace_back(std::string(key), std::move(v));
    return *this;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    RUBY_ASSERT(type == JsonType::Array,
                "push() on a non-array JSON value");
    array.push_back(std::move(v));
    return *this;
}

std::string
JsonValue::where() const
{
    return line == 0 ? std::string("json")
                     : "config line " + std::to_string(line);
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (type != JsonType::Object)
        return nullptr;
    for (const auto &member : object)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *v = find(key);
    RUBY_CHECK(v != nullptr, where(), ": missing required key '",
               key, "'");
    return *v;
}

bool
JsonValue::asBool() const
{
    RUBY_CHECK(type == JsonType::Bool, where(),
               ": expected bool, got ", typeName(type));
    return boolean;
}

const std::string &
JsonValue::asString() const
{
    RUBY_CHECK(type == JsonType::String,
               where(), ": expected string, got ", typeName(type));
    return string;
}

std::uint64_t
JsonValue::asU64() const
{
    return integerOf<std::uint64_t>(*this, "an unsigned 64-bit integer");
}

std::int64_t
JsonValue::asI64() const
{
    return integerOf<std::int64_t>(*this, "a signed 64-bit integer");
}

double
JsonValue::asDouble() const
{
    if (type == JsonType::Null) // nan round-trips as null
        return std::numeric_limits<double>::quiet_NaN();
    RUBY_CHECK(type == JsonType::Number,
               where(), ": expected number, got ", typeName(type));
    // strtod instead of from_chars<double>: universally available and
    // correctly rounded; overflow yields +-HUGE_VAL == +-inf, exactly
    // the writer's convention for non-finite values.
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(number.c_str(), &end);
    RUBY_CHECK(end == number.c_str() + number.size(), where(),
               ": '", number, "' is not a double");
    return v;
}

bool
JsonValue::getBool(std::string_view key, bool fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr ? v->asBool() : fallback;
}

std::uint64_t
JsonValue::getU64(std::string_view key, std::uint64_t fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr ? v->asU64() : fallback;
}

double
JsonValue::getDouble(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr ? v->asDouble() : fallback;
}

std::string
JsonValue::getString(std::string_view key,
                     std::string_view fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr ? v->asString() : std::string(fallback);
}

JsonValue
parseJson(std::string_view text)
{
    return Parser(text).parse();
}

std::string
writeJson(const JsonValue &value)
{
    std::string out;
    writeValue(out, value);
    return out;
}

} // namespace ruby
