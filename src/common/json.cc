#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "common/logging.h"

namespace overgen {

bool
Json::asBool() const
{
    OG_ASSERT(isBool(), "JSON value is not a bool");
    return std::get<bool>(value);
}

double
Json::asNumber() const
{
    OG_ASSERT(isNumber(), "JSON value is not a number");
    return std::get<double>(value);
}

int64_t
Json::asInt() const
{
    return static_cast<int64_t>(asNumber());
}

const std::string &
Json::asString() const
{
    OG_ASSERT(isString(), "JSON value is not a string");
    return std::get<std::string>(value);
}

const Json::Array &
Json::asArray() const
{
    OG_ASSERT(isArray(), "JSON value is not an array");
    return std::get<Array>(value);
}

Json::Array &
Json::asArray()
{
    OG_ASSERT(isArray(), "JSON value is not an array");
    return std::get<Array>(value);
}

const Json::Object &
Json::asObject() const
{
    OG_ASSERT(isObject(), "JSON value is not an object");
    return std::get<Object>(value);
}

Json::Object &
Json::asObject()
{
    OG_ASSERT(isObject(), "JSON value is not an object");
    return std::get<Object>(value);
}

const Json &
Json::at(const std::string &key) const
{
    const auto &obj = asObject();
    auto it = obj.find(key);
    OG_ASSERT(it != obj.end(), "missing JSON key '", key, "'");
    return it->second;
}

bool
Json::contains(const std::string &key) const
{
    if (!isObject())
        return false;
    return asObject().count(key) > 0;
}

double
Json::numberOr(const std::string &key, double fallback) const
{
    if (!contains(key))
        return fallback;
    return at(key).asNumber();
}

void
Json::set(const std::string &key, Json v)
{
    if (isNull())
        value = Object{};
    asObject()[key] = std::move(v);
}

void
Json::push(Json v)
{
    if (isNull())
        value = Array{};
    asArray().push_back(std::move(v));
}

namespace {

void
escapeString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            // RFC 8259: all other control characters must be escaped.
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
formatNumber(std::string &out, double d)
{
    if (d == std::floor(d) && std::abs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        out += buf;
    } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        out += buf;
    }
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isNumber()) {
        formatNumber(out, asNumber());
    } else if (isString()) {
        escapeString(out, asString());
    } else if (isArray()) {
        const auto &arr = asArray();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        bool first = true;
        for (const auto &elem : arr) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            elem.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
    } else {
        const auto &obj = asObject();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, val] : obj) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            escapeString(out, key);
            out += indent > 0 ? ": " : ":";
            val.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Syntax error thrown by the parser; tryParse() catches it. */
struct ParseError
{
    std::string message;
};

/** Recursive-descent JSON parser over a string. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    Json
    parse()
    {
        Json result = parseValue();
        skipWhitespace();
        if (pos != text.size())
            fail("trailing characters in JSON at ", pos);
        return result;
    }

  private:
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args)
    {
        throw ParseError{ detail::concat(
            std::forward<Args>(args)...) };
    }

    /** RFC 8259 whitespace: space, tab, line feed, carriage return. */
    void
    skipWhitespace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of JSON");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c) {
            fail("expected '", c, "' at position ", pos, ", got '",
                 text[pos], "'");
        }
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        size_t len = std::string(lit).size();
        if (text.compare(pos, len, lit) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    Json
    parseValue()
    {
        skipWhitespace();
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"')
            return Json(parseString());
        if (consumeLiteral("true"))
            return Json(true);
        if (consumeLiteral("false"))
            return Json(false);
        if (consumeLiteral("null"))
            return Json(nullptr);
        return parseNumber();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= text.size())
                fail("unterminated JSON string");
            char c = text[pos++];
            if (c == '"')
                break;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in JSON string at ",
                     pos - 1);
            if (c == '\\') {
                if (pos >= text.size())
                    fail("bad escape");
                char esc = text[pos++];
                switch (esc) {
                  case 'n':
                    out += '\n';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= h - '0';
                        else if (h >= 'a' && h <= 'f')
                            code |= h - 'a' + 10;
                        else if (h >= 'A' && h <= 'F')
                            code |= h - 'A' + 10;
                        else
                            fail("bad \\u escape digit");
                    }
                    // UTF-8 encode the code point (BMP only; this
                    // writer never emits surrogate pairs).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3F));
                        out +=
                            static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                  }
                  case '"':
                  case '\\':
                  case '/':
                    out += esc;
                    break;
                  default:
                    fail("bad escape '\\", esc, "' in JSON string at ",
                         pos - 2);
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    /** @return the number of digits skipped at pos. */
    size_t
    skipDigits()
    {
        size_t from = pos;
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        return pos - from;
    }

    /**
     * RFC 8259 number: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
     * Values beyond the double range are rejected (the writer could
     * not print them back); values below it round to zero or a
     * subnormal, as the writer's own output of one must.
     */
    Json
    parseNumber()
    {
        size_t start = pos;
        auto next_is = [&](std::string_view chars) {
            return pos < text.size() &&
                   chars.find(text[pos]) != std::string_view::npos;
        };
        if (next_is("-"))
            ++pos;
        if (next_is("0"))
            ++pos;
        else if (skipDigits() == 0)
            fail("invalid JSON number at ", start);
        if (next_is(".")) {
            ++pos;
            if (skipDigits() == 0)
                fail("invalid JSON number at ", start);
        }
        if (next_is("eE")) {
            ++pos;
            if (next_is("+-"))
                ++pos;
            if (skipDigits() == 0)
                fail("invalid JSON number at ", start);
        }
        std::string digits = text.substr(start, pos - start);
        double value = std::strtod(digits.c_str(), nullptr);
        if (std::isinf(value))
            fail("JSON number out of range at ", start);
        return Json(value);
    }

    /** Counts one level of nesting for the scope of a container. */
    struct Nest
    {
        explicit Nest(Parser &p) : parser(p)
        {
            if (++parser.depth > kMaxDepth)
                parser.fail("JSON nested deeper than ", kMaxDepth,
                            " levels at ", parser.pos);
        }
        ~Nest() { --parser.depth; }
        Parser &parser;
    };

    Json
    parseArray()
    {
        Nest nest(*this);
        expect('[');
        Json arr = Json::makeArray();
        skipWhitespace();
        if (peek() == ']') {
            ++pos;
            return arr;
        }
        while (true) {
            arr.push(parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos;
            } else {
                expect(']');
                break;
            }
        }
        return arr;
    }

    Json
    parseObject()
    {
        Nest nest(*this);
        expect('{');
        Json obj = Json::makeObject();
        skipWhitespace();
        if (peek() == '}') {
            ++pos;
            return obj;
        }
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            obj.set(key, parseValue());
            skipWhitespace();
            if (peek() == ',') {
                ++pos;
            } else {
                expect('}');
                break;
            }
        }
        return obj;
    }

    /**
     * Deepest nesting parsed: the parser recurses once per level, so
     * the bound keeps a hostile line from overflowing the stack. The
     * program's own records nest a handful of levels.
     */
    static constexpr int kMaxDepth = 256;

    const std::string &text;
    size_t pos = 0;
    int depth = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    std::string error;
    std::optional<Json> result = tryParse(text, &error);
    if (!result)
        OG_FATAL("JSON parse error: ", error);
    return std::move(*result);
}

std::optional<Json>
Json::tryParse(const std::string &text, std::string *error)
{
    Parser parser(text);
    try {
        return parser.parse();
    } catch (const ParseError &e) {
        if (error != nullptr)
            *error = e.message;
        return std::nullopt;
    }
}

} // namespace overgen
