/**
 * @file
 * The library's one value tree, with its two front ends: parseJson
 * for the ruby-served wire protocol and parseYaml for configuration
 * files. Both build the same tagged tree and are read with the same
 * accessors, so they share one number rule and one nesting limit.
 *
 * Exactness over generality: the daemon must hand back *bit-identical*
 * numbers to an offline run, so numbers are never routed through a
 * lossy double round-trip. The parser stores each number's raw token
 * text; asU64()/asI64() re-parse it as an integer (rejecting tokens
 * that are not exactly an integer) and asDouble() uses
 * std::from_chars. The writer emits integers via std::to_chars and
 * doubles via the shortest round-trip form of std::to_chars, so
 * double -> text -> double is the identity. Objects preserve
 * insertion order; duplicate keys are rejected at parse time.
 *
 * JSON scope: one protocol line per document (NDJSON). No comments,
 * no trailing garbage, UTF-8 passed through verbatim (\\uXXXX escapes
 * are decoded to UTF-8 on input and non-ASCII bytes are passed through
 * unescaped on output).
 */

#ifndef RUBY_IO_JSON_HPP
#define RUBY_IO_JSON_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ruby
{

/** Deepest container nesting either parser accepts. */
inline constexpr int kMaxJsonDepth = 64;

/** JSON value kinds. */
enum class JsonType : std::uint8_t
{
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
};

/**
 * One JSON value (a small tagged tree). Accessors throw ruby::Error
 * on a type mismatch, so protocol decoding errors surface as
 * structured bad-request responses rather than crashes. Their
 * messages start "json:" for wire values and "config line N:" for
 * nodes parseYaml built.
 */
struct JsonValue
{
    JsonType type = JsonType::Null;
    bool boolean = false;
    /** 1-based source line of a parseYaml node; 0 otherwise. */
    std::uint32_t line = 0;
    /** Raw number token, e.g. "42", "-1.5e300"; valid iff Number. */
    std::string number;
    std::string string; ///< valid iff String
    std::vector<JsonValue> array;
    /** Key/value pairs in insertion order; valid iff Object. */
    std::vector<std::pair<std::string, JsonValue>> object;

    // -- constructors ---------------------------------------------------
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeString(std::string_view v);
    static JsonValue makeU64(std::uint64_t v);
    static JsonValue makeI64(std::int64_t v);
    /** Shortest round-trip form; non-finite values map to +-1e999 /
     *  null (JSON has no inf/nan) and parse back as +-inf / 0. */
    static JsonValue makeDouble(double v);
    static JsonValue makeArray();
    static JsonValue makeObject();

    // -- builders -------------------------------------------------------
    /** Append a member to an object (no duplicate check; callers own
     *  key uniqueness). */
    JsonValue &set(std::string_view key, JsonValue v);
    /** Append an element to an array. */
    JsonValue &push(JsonValue v);

    // -- queries --------------------------------------------------------
    bool isNull() const { return type == JsonType::Null; }

    /** Object member lookup; nullptr when absent (or not an object). */
    const JsonValue *find(std::string_view key) const;

    /** Object member that must exist; throws ruby::Error otherwise. */
    const JsonValue &at(std::string_view key) const;

    /** Error-message prefix locating this value: "json", or "config
     *  line N" for a node parseYaml built. */
    std::string where() const;

    // -- typed accessors (throw ruby::Error on mismatch) ---------------
    bool asBool() const;
    const std::string &asString() const;
    std::uint64_t asU64() const;
    std::int64_t asI64() const;
    double asDouble() const;

    // -- convenience: optional member with default ----------------------
    bool getBool(std::string_view key, bool fallback) const;
    std::uint64_t getU64(std::string_view key,
                         std::uint64_t fallback) const;
    double getDouble(std::string_view key, double fallback) const;
    std::string getString(std::string_view key,
                          std::string_view fallback) const;
};

/**
 * Parse one complete JSON document from @p text (leading/trailing
 * whitespace allowed, nothing else). Throws ruby::Error with a byte
 * offset on malformed input.
 */
JsonValue parseJson(std::string_view text);

/**
 * Parse a configuration document in a YAML subset into the same tree;
 * errors name the source line. Supported: nested block maps, block
 * sequences ("- " items), flow sequences ("[a, b, c]"), scalars, "#"
 * comments and blank lines. Not supported: anchors, multi-document
 * streams, flow maps, block scalars. Tabs are rejected.
 *
 * Scalars are typed here, never by the accessors: a quoted scalar is
 * a String; a plain scalar matching the number grammar below is a
 * Number keeping its raw token; true|yes|on and false|no|off are
 * Bool; an empty value is Null; anything else is a String.
 */
JsonValue parseYaml(std::string_view text);

/**
 * Advance @p pos over one number token in @p text: an optional '-',
 * digits, then an optional '.digits' fraction and 'e[+-]digits'
 * exponent (JSON's grammar, leading zeros tolerated; no '+', no bare
 * '.'). Returns false, with @p pos at the offending byte, when no
 * valid token starts there.
 */
bool scanJsonNumber(std::string_view text, std::size_t &pos);

/** Serialize @p value compactly (no whitespace, no trailing newline). */
std::string writeJson(const JsonValue &value);

} // namespace ruby

#endif // RUBY_IO_JSON_HPP
