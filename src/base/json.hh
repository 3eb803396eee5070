/**
 * @file
 * The repository's JSON string grammar: one escaper for emitters and
 * one reader for the tools that read reports and journals back.
 *
 * There is deliberately no writer class. Every emitter (profile,
 * timeline and sensitivity reports, campaign journals, the status
 * heartbeat, the divergence report, Chrome traces) keeps its own byte
 * layout, which CI compares with `cmp`; what they share is how a
 * string literal is spelled, and that lives here.
 */

#ifndef LIMIT_BASE_JSON_HH
#define LIMIT_BASE_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace limit::json {

/**
 * Escape `s` for the body of a JSON string literal (quotes not
 * added). `"`, `\`, newline, tab and carriage return get their short
 * escapes, other bytes below 0x20 become `\u00xx`, and every other
 * byte (UTF-8 included) passes through unchanged.
 */
std::string escape(std::string_view s);

/** One parsed JSON value. */
struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    /** Every number token, as the nearest double. */
    double number = 0;
    /**
     * Set when the number token is a plain non-negative integer (no
     * sign, fraction or exponent) that fits in 64 bits; `uint` then
     * holds it exactly.
     */
    bool isUint = false;
    std::uint64_t uint = 0;
    std::string text;
    std::vector<Value> items;
    /** Insertion-ordered (report keys are ordered on purpose). */
    std::vector<std::pair<std::string, Value>> members;

    /** First member named `key`, or nullptr (also for non-objects). */
    const Value *find(std::string_view key) const;

    /**
     * Read a plain non-negative integer exactly. False for anything
     * else, including an integer above UINT64_MAX, which is rejected
     * rather than wrapped.
     */
    bool
    asUint(std::uint64_t &out) const
    {
        if (kind != Kind::Number || !isUint)
            return false;
        out = uint;
        return true;
    }
};

/**
 * Parse one complete JSON document (RFC 8259 grammar; whitespace
 * around it is allowed, anything else after it is not). Returns false
 * with `*error` set to "<what> at offset <n>" on malformed input.
 */
bool parse(std::string_view text, Value &out, std::string *error = nullptr);

} // namespace limit::json

#endif // LIMIT_BASE_JSON_HH
