#include "ruby/io/json.hpp"

#include <algorithm>
#include <unordered_set>

#include "ruby/common/error.hpp"

namespace ruby
{

namespace
{

/** One significant (non-blank, comment-stripped) input line. */
struct Line
{
    std::uint32_t number; ///< 1-based source line
    int indent;           ///< leading spaces
    std::string text;     ///< content without indent/comment/trailing ws
};

std::string
stripComment(const std::string &s)
{
    char quote = 0; // the open quote character; 0 outside quotes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (quote != 0) {
            if (c == quote)
                quote = 0;
        } else if (c == '"' || c == '\'') {
            quote = c;
        } else if (c == '#' && (i == 0 || s[i - 1] == ' ')) {
            return s.substr(0, i);
        }
    }
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(' ');
    if (b == std::string::npos)
        return {};
    std::size_t e = s.find_last_not_of(' ');
    return s.substr(b, e - b + 1);
}

std::vector<Line>
splitLines(std::string_view text)
{
    std::vector<Line> lines;
    std::uint32_t number = 0;
    for (std::size_t pos = 0; pos <= text.size();) {
        const std::size_t end = std::min(text.find('\n', pos), text.size());
        std::string raw(text.substr(pos, end - pos));
        pos = end + 1;
        ++number;
        RUBY_CHECK(raw.find('\t') == std::string::npos,
                   "config line ", number,
                   ": tabs are not allowed, use spaces");
        raw = stripComment(raw);
        // Trailing whitespace.
        while (!raw.empty() && (raw.back() == ' ' || raw.back() == '\r'))
            raw.pop_back();
        if (raw.empty())
            continue;
        const std::size_t indent = raw.find_first_not_of(' ');
        lines.push_back(
            Line{number, static_cast<int>(indent), raw.substr(indent)});
    }
    return lines;
}

/** The same nesting limit parseJson applies. */
void
checkDepth(int depth, std::uint32_t line)
{
    RUBY_CHECK(depth <= kMaxJsonDepth, "config line ", line,
               ": nesting too deep");
}

/** Type one scalar (see parseYaml): the accessors never do. */
JsonValue
makeScalar(const std::string &value)
{
    const char quote = value.front();
    if (value.size() >= 2 && (quote == '"' || quote == '\'') &&
        value.back() == quote)
        return JsonValue::makeString(value.substr(1, value.size() - 2));
    std::size_t end = 0;
    if (scanJsonNumber(value, end) && end == value.size()) {
        JsonValue number;
        number.type = JsonType::Number;
        number.number = value;
        return number;
    }
    if (value == "true" || value == "yes" || value == "on")
        return JsonValue::makeBool(true);
    if (value == "false" || value == "no" || value == "off")
        return JsonValue::makeBool(false);
    return JsonValue::makeString(value);
}

/** Parse "[a, b, c]" at @p depth into a sequence of scalars. */
JsonValue
parseFlow(const std::string &value, std::uint32_t line, int depth)
{
    RUBY_CHECK(value.back() == ']', "config line ", line,
               ": unterminated flow sequence");
    JsonValue node = JsonValue::makeArray();
    const std::string inner = trim(value.substr(1, value.size() - 2));
    if (inner.empty())
        return node;
    checkDepth(depth + 1, line);
    for (std::size_t start = 0; start <= inner.size();) {
        const std::size_t comma =
            std::min(inner.find(',', start), inner.size());
        const std::string item = trim(inner.substr(start, comma - start));
        RUBY_CHECK(!item.empty(), "config line ", line,
                   ": empty flow-sequence element");
        node.array.push_back(makeScalar(item));
        node.array.back().line = line;
        start = comma + 1;
    }
    return node;
}

/**
 * Recursive-descent parser over significant lines. Each node's line
 * is the line of the key or dash that introduced it.
 */
struct YamlParser
{
    std::vector<Line> lines_;
    std::size_t pos_ = 0;

    JsonValue
    run()
    {
        JsonValue root;
        root.line = 1;
        if (lines_.empty())
            return root;
        root = parseValue("", lines_.front().number, -1, 0);
        RUBY_CHECK(pos_ == lines_.size(), "config line ",
                   lines_[pos_].number, ": unexpected indentation");
        return root;
    }

    /**
     * A value at @p depth introduced on @p line: a scalar or flow
     * sequence when @p value is non-empty, else the block indented
     * past @p parent_indent that follows, else null.
     */
    JsonValue
    parseValue(const std::string &value, std::uint32_t line,
               int parent_indent, int depth)
    {
        checkDepth(depth, line);
        JsonValue node;
        if (!value.empty())
            node = value.front() == '[' ? parseFlow(value, line, depth)
                                        : makeScalar(value);
        else if (pos_ < lines_.size() &&
                 lines_[pos_].indent > parent_indent)
            node = parseBlock(lines_[pos_].indent, depth);
        node.line = line;
        return node;
    }

    JsonValue
    parseBlock(int indent, int depth)
    {
        if (lines_[pos_].text.rfind("- ", 0) == 0 ||
            lines_[pos_].text == "-")
            return parseSequence(indent, depth);
        return parseMap(indent, depth);
    }

    JsonValue
    parseSequence(int indent, int depth)
    {
        JsonValue node = JsonValue::makeArray();
        while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
            Line &line = lines_[pos_];
            if (line.text.rfind("- ", 0) != 0 && line.text != "-")
                break;
            std::string rest =
                line.text == "-" ? "" : trim(line.text.substr(2));
            if (!rest.empty() && (rest.find(": ") != std::string::npos ||
                                  rest.back() == ':')) {
                // Map item starting on the dash line: rewrite the
                // line as its first key, indented past the dash, so
                // it opens the block that forms the item.
                line.indent = indent + 2;
                line.text = std::move(rest);
                rest.clear();
            } else {
                ++pos_;
            }
            node.array.push_back(
                parseValue(rest, line.number, indent, depth + 1));
        }
        return node;
    }

    JsonValue
    parseMap(int indent, int depth)
    {
        JsonValue node = JsonValue::makeObject();
        std::unordered_set<std::string> keys; // linear duplicate check
        while (pos_ < lines_.size() && lines_[pos_].indent == indent) {
            const Line &line = lines_[pos_];
            const std::size_t colon = line.text.find(':');
            RUBY_CHECK(colon != std::string::npos && colon > 0,
                       "config line ", line.number,
                       ": expected 'key: value'");
            std::string key = trim(line.text.substr(0, colon));
            const std::string value =
                trim(line.text.substr(colon + 1));
            RUBY_CHECK(keys.insert(key).second, "config line ",
                       line.number, ": duplicate key '", key, "'");
            ++pos_;
            node.object.emplace_back(
                std::move(key),
                parseValue(value, line.number, indent, depth + 1));
            RUBY_CHECK(pos_ == lines_.size() || lines_[pos_].indent <= indent,
                       "config line ", lines_[pos_].number,
                       ": unexpected indentation under '",
                       node.object.back().first, "'");
        }
        return node;
    }
};

} // namespace

JsonValue
parseYaml(std::string_view text)
{
    return YamlParser{splitLines(text)}.run();
}

} // namespace ruby
