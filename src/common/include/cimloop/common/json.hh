/**
 * @file
 * The one JSON layer: a strict recursive-descent parser, an escaper and
 * a compact writer. Every JSON byte cimloop reads or writes goes through
 * here — the serve protocol, the sweep journal, and the obs/dse
 * exporters (which hand-format their layout but escape every string
 * with jsonEscape()). No external dependency: a daemon's request
 * surface and a crash-tolerant journal both need every malformed byte
 * sequence to become a structured error, never UB or an abort.
 *
 * Parser properties the protocol and journal robustness suites pin:
 *  - never throws on malformed input: parseJson() returns nullopt and fills
 *    an error string with a byte offset;
 *  - bounded recursion (kJsonMaxDepth) so deeply nested input cannot
 *    overflow the stack;
 *  - numbers keep their raw source text next to the double value, so a
 *    request id of arbitrary magnitude echoes back verbatim instead of
 *    round-tripping through double precision;
 *  - strings accept the full backslash-uXXXX escape range including
 *    surrogate pairs (encoded as UTF-8) and escaped NULs; raw control
 *    bytes (including NUL) inside a string are rejected as JSON
 *    requires.
 */
#ifndef CIMLOOP_COMMON_JSON_HH
#define CIMLOOP_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cimloop {

/** One parsed JSON value (a small closed sum type). */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string raw;  //!< numbers: the exact source token
    std::string text; //!< strings: the decoded value
    std::vector<JsonValue> items; //!< arrays
    /** Object members in source order (later duplicates win on get()). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue* get(const std::string& key) const;
};

/** Maximum nesting depth parseJson() accepts before erroring out. */
inline constexpr int kJsonMaxDepth = 64;

/**
 * Parses exactly one JSON document from @p input (leading/trailing
 * whitespace allowed, trailing garbage rejected). On failure returns
 * nullopt and, when @p error is non-null, stores a message carrying the
 * byte offset of the offending input.
 */
std::optional<JsonValue> parseJson(const std::string& input,
                                   std::string* error = nullptr);

/** Escapes @p s as the *inside* of a JSON string literal (no quotes):
 *  ", backslash, control bytes, and DEL become escape sequences;
 *  everything else — including non-ASCII UTF-8 — passes through
 *  byte-exact. */
std::string jsonEscape(const std::string& s);

/** Serializes @p v compactly (one line, no spaces). Numbers emit their
 *  raw source token when one was captured, so parsed ids round-trip
 *  byte-exact. */
std::string writeJson(const JsonValue& v);

} // namespace cimloop

#endif // CIMLOOP_COMMON_JSON_HH
