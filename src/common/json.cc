#include "cimloop/common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cimloop {

const JsonValue*
JsonValue::get(const std::string& key) const
{
    const JsonValue* found = nullptr;
    for (const auto& [k, v] : members) {
        if (k == key)
            found = &v; // later duplicates win, like most parsers
    }
    return found;
}

namespace {

/** Recursive-descent parser over a byte range; never throws. */
class Parser
{
  public:
    Parser(const std::string& input, std::string* error)
        : in_(input), error_(error)
    {}

    std::optional<JsonValue> run()
    {
        skipWs();
        JsonValue v;
        if (!parseValue(v, 0))
            return std::nullopt;
        skipWs();
        if (pos_ != in_.size())
            return fail("trailing garbage after JSON value");
        return v;
    }

  private:
    const std::string& in_;
    std::string* error_;
    std::size_t pos_ = 0;

    std::nullopt_t fail(const std::string& what)
    {
        if (error_ && error_->empty()) {
            *error_ = what + " at byte " + std::to_string(pos_);
        }
        return std::nullopt;
    }

    bool failValue(const std::string& what)
    {
        fail(what);
        return false;
    }

    void skipWs()
    {
        while (pos_ < in_.size()) {
            char c = in_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool atEnd() const { return pos_ >= in_.size(); }
    char peek() const { return in_[pos_]; }

    bool literal(const char* word, std::size_t len)
    {
        if (in_.compare(pos_, len, word) != 0)
            return failValue("invalid literal");
        pos_ += len;
        return true;
    }

    bool parseValue(JsonValue& out, int depth)
    {
        if (depth > kJsonMaxDepth)
            return failValue("nesting deeper than " +
                             std::to_string(kJsonMaxDepth) + " levels");
        if (atEnd())
            return failValue("unexpected end of input");
        switch (peek()) {
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        case '[':
            return parseArray(out, depth);
        case '{':
            return parseObject(out, depth);
        default:
            return parseNumber(out);
        }
    }

    bool parseNumber(JsonValue& out)
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        if (atEnd() || peek() < '0' || peek() > '9')
            return failValue("invalid value");
        if (peek() == '0') {
            ++pos_;
        } else {
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!atEnd() && peek() == '.') {
            ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                return failValue("digit required after decimal point");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (atEnd() || peek() < '0' || peek() > '9')
                return failValue("digit required in exponent");
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                ++pos_;
        }
        out.kind = JsonValue::Kind::Number;
        out.raw = in_.substr(start, pos_ - start);
        // strtod saturates huge magnitudes to +-inf; the raw token keeps
        // the exact spelling for byte-exact id echo.
        out.number = std::strtod(out.raw.c_str(), nullptr);
        return true;
    }

    bool hex4(unsigned& out)
    {
        if (pos_ + 4 > in_.size())
            return failValue("truncated unicode escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = in_[pos_ + static_cast<std::size_t>(i)];
            unsigned digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                digit = static_cast<unsigned>(c - 'A' + 10);
            else
                return failValue("invalid unicode escape digit");
            out = out * 16 + digit;
        }
        pos_ += 4;
        return true;
    }

    static void appendUtf8(std::string& s, unsigned cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool parseString(std::string& out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (atEnd())
                return failValue("unterminated string");
            unsigned char c = static_cast<unsigned char>(in_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                // Raw control bytes — embedded NULs included — are
                // invalid inside a JSON string; clients must escape.
                return failValue("raw control byte in string");
            }
            if (c == '\\') {
                ++pos_;
                if (atEnd())
                    return failValue("truncated escape");
                char e = in_[pos_++];
                switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    unsigned cp;
                    if (!hex4(cp))
                        return false;
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // High surrogate: require the low half.
                        if (pos_ + 1 >= in_.size() || in_[pos_] != '\\' ||
                            in_[pos_ + 1] != 'u')
                            return failValue("unpaired high surrogate");
                        pos_ += 2;
                        unsigned lo;
                        if (!hex4(lo))
                            return false;
                        if (lo < 0xDC00 || lo > 0xDFFF)
                            return failValue("invalid low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        return failValue("unpaired low surrogate");
                    }
                    appendUtf8(out, cp);
                    break;
                }
                default:
                    return failValue("unknown escape");
                }
                continue;
            }
            out.push_back(static_cast<char>(c));
            ++pos_;
        }
    }

    bool parseArray(JsonValue& out, int depth)
    {
        ++pos_; // '['
        out.kind = JsonValue::Kind::Array;
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue item;
            skipWs();
            if (!parseValue(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (atEnd())
                return failValue("unterminated array");
            char c = in_[pos_++];
            if (c == ']')
                return true;
            if (c != ',') {
                --pos_;
                return failValue("expected ',' or ']' in array");
            }
        }
    }

    bool parseObject(JsonValue& out, int depth)
    {
        ++pos_; // '{'
        out.kind = JsonValue::Kind::Object;
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (atEnd() || peek() != '"')
                return failValue("expected string key in object");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (atEnd() || in_[pos_] != ':')
                return failValue("expected ':' after object key");
            ++pos_;
            skipWs();
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (atEnd())
                return failValue("unterminated object");
            char c = in_[pos_++];
            if (c == '}')
                return true;
            if (c != ',') {
                --pos_;
                return failValue("expected ',' or '}' in object");
            }
        }
    }
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string& input, std::string* error)
{
    if (error)
        error->clear();
    Parser parser(input, error);
    return parser.run();
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20 || c == 0x7F) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    return out;
}

std::string
writeJson(const JsonValue& v)
{
    switch (v.kind) {
    case JsonValue::Kind::Null:
        return "null";
    case JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
    case JsonValue::Kind::Number:
        if (!v.raw.empty())
            return v.raw; // byte-exact round trip for parsed numbers
        if (std::isfinite(v.number)) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%.17g", v.number);
            return buf;
        }
        return "null"; // JSON has no inf/nan
    case JsonValue::Kind::String:
        return "\"" + jsonEscape(v.text) + "\"";
    case JsonValue::Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < v.items.size(); ++i) {
            if (i)
                out += ",";
            out += writeJson(v.items[i]);
        }
        return out + "]";
    }
    case JsonValue::Kind::Object: {
        std::string out = "{";
        for (std::size_t i = 0; i < v.members.size(); ++i) {
            if (i)
                out += ",";
            out += "\"" + jsonEscape(v.members[i].first) +
                   "\":" + writeJson(v.members[i].second);
        }
        return out + "}";
    }
    }
    return "null";
}

} // namespace cimloop
