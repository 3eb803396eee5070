#include "base/json.hh"

#include <charconv>
#include <cstdio>

namespace limit::json {

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

const Value *
Value::find(std::string_view key) const
{
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Nesting bound: reports nest a handful of levels; this stops a
 * hostile document from exhausting the stack. */
constexpr unsigned maxDepth = 256;

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

struct Parser
{
    std::string_view in;
    std::size_t pos = 0;
    std::string error;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    ws()
    {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        ws();
        if (pos >= in.size() || in[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos < in.size() && in[pos] != '"') {
            const char c = in[pos];
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character");
            ++pos;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= in.size())
                return fail("truncated escape");
            switch (in[pos++]) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos + 4 > in.size())
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = in[pos++];
                    v <<= 4;
                    if (isDigit(h))
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // escape() only emits control bytes; encode the code
                // point as UTF-8 without surrogate handling.
                if (v < 0x80) {
                    out += static_cast<char>(v);
                } else if (v < 0x800) {
                    out += static_cast<char>(0xC0 | (v >> 6));
                    out += static_cast<char>(0x80 | (v & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (v >> 12));
                    out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (v & 0x3F));
                }
                break;
              }
              default: return fail("unknown escape");
            }
        }
        if (pos >= in.size())
            return fail("unterminated string");
        ++pos;
        return true;
    }

    /** -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    parseNumber(Value &out)
    {
        const std::size_t start = pos;
        auto digits = [&] {
            const std::size_t from = pos;
            while (pos < in.size() && isDigit(in[pos]))
                ++pos;
            return pos > from;
        };
        const bool negative = pos < in.size() && in[pos] == '-';
        if (negative)
            ++pos;
        if (pos < in.size() && in[pos] == '0')
            ++pos;
        else if (!digits())
            return fail("bad value");
        const std::size_t intEnd = pos;
        if (pos < in.size() && in[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("bad number");
        }
        if (pos < in.size() && (in[pos] == 'e' || in[pos] == 'E')) {
            ++pos;
            if (pos < in.size() && (in[pos] == '+' || in[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("bad number");
        }
        const char *first = in.data() + start;
        const char *last = in.data() + pos;
        out.kind = Value::Kind::Number;
        const auto [ptr, ec] = std::from_chars(first, last, out.number);
        if (ptr != last)
            return fail("bad number");
        if (ec == std::errc::result_out_of_range)
            return fail("number out of range");
        if (!negative && intEnd == pos) {
            // from_chars reports overflow instead of wrapping.
            out.isUint = std::from_chars(first, last, out.uint).ec ==
                         std::errc{};
        }
        return true;
    }

    bool
    parseLiteral(std::string_view word)
    {
        if (in.compare(pos, word.size(), word) != 0)
            return fail("bad value");
        pos += word.size();
        return true;
    }

    bool
    parseValue(Value &out, unsigned depth)
    {
        ws();
        if (pos >= in.size())
            return fail("unexpected end of input");
        if (depth > maxDepth)
            return fail("nesting too deep");
        switch (in[pos]) {
          case '{':
            ++pos;
            out.kind = Value::Kind::Object;
            ws();
            if (pos < in.size() && in[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                std::string key;
                if (!parseString(key) || !consume(':'))
                    return false;
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.members.emplace_back(std::move(key), std::move(v));
                ws();
                if (pos < in.size() && in[pos] == ',') {
                    ++pos;
                    continue;
                }
                return consume('}');
            }
          case '[':
            ++pos;
            out.kind = Value::Kind::Array;
            ws();
            if (pos < in.size() && in[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.items.push_back(std::move(v));
                ws();
                if (pos < in.size() && in[pos] == ',') {
                    ++pos;
                    continue;
                }
                return consume(']');
            }
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.text);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return parseLiteral("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            return parseLiteral("false");
          case 'n':
            return parseLiteral("null");
          default:
            return parseNumber(out);
        }
    }
};

} // namespace

bool
parse(std::string_view text, Value &out, std::string *error)
{
    Parser p;
    p.in = text;
    out = Value{};
    bool ok = p.parseValue(out, 0);
    if (ok) {
        p.ws();
        if (p.pos != text.size())
            ok = p.fail("trailing content");
    }
    if (!ok && error)
        *error = p.error;
    return ok;
}

} // namespace limit::json
