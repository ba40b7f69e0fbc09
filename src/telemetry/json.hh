/**
 * @file
 * Minimal JSON value-tree parser.
 *
 * Exists so `actstat` and the telemetry tests can consume metrics and
 * Chrome-trace JSON without an external dependency. Covers the full
 * grammar (objects, arrays, strings with escapes incl. \uXXXX, numbers,
 * booleans, null) with a recursion-depth limit; it is a validator-grade
 * reader, not a streaming parser — fine for snapshot-sized inputs.
 */

#ifndef ACT_TELEMETRY_JSON_HH
#define ACT_TELEMETRY_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace act::telemetry
{

/** One parsed JSON value. Object keys keep their document order. */
struct JsonValue
{
    enum class Type
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    Type type = Type::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::kNull; }
    bool isObject() const { return type == Type::kObject; }
    bool isArray() const { return type == Type::kArray; }
    bool isString() const { return type == Type::kString; }
    bool isNumber() const { return type == Type::kNumber; }

    /** Member of an object by key; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** number as u64 (0 for non-numbers / negatives). */
    std::uint64_t asU64() const;
};

/**
 * Parse @p input. @return the root value, or nullptr with a
 * human-readable message in @p error on malformed input (including
 * trailing garbage after the root value).
 */
std::unique_ptr<JsonValue> parseJson(const std::string &input,
                                     std::string *error = nullptr);

/**
 * Escape @p s for a JSON string body: quotes, backslash and every
 * control character below 0x20. Bytes from 0x20 up pass through, so
 * UTF-8 text stays as written. parseJson reads the result back to @p s.
 */
std::string jsonEscape(const std::string &s);

/**
 * Shortest decimal rendering of @p v that strtod reads back to @p v,
 * for JSON numbers. Integral values below 1e15 in magnitude print as
 * integers ("10", not the also-round-tripping "1e+01").
 */
std::string formatDouble(double v);

} // namespace act::telemetry

#endif // ACT_TELEMETRY_JSON_HH
