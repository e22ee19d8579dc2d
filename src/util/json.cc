#include "util/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"

namespace usfq
{

// --- writer ----------------------------------------------------------------

namespace
{

template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

} // namespace

void
JsonWriter::newline()
{
    out += '\n';
    out.append(stack.size() * static_cast<std::size_t>(indentWidth), ' ');
}

void
JsonWriter::prefix(bool is_key)
{
    if (keyPending) {
        // A key was just written: this value attaches to it inline.
        if (is_key)
            panic("JsonWriter: key after key");
        keyPending = false;
        return;
    }
    if (stack.empty())
        return;
    Level &top = stack.back();
    if (top.isObject && !is_key)
        panic("JsonWriter: bare value inside an object (missing key)");
    if (top.hasEntries)
        out += ',';
    top.hasEntries = true;
    if (indentWidth > 0)
        newline();
}

JsonWriter &
JsonWriter::beginObject()
{
    prefix(false);
    out += '{';
    stack.push_back(Level{true});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (stack.empty() || !stack.back().isObject)
        panic("JsonWriter: endObject() outside an object");
    const bool had = stack.back().hasEntries;
    stack.pop_back();
    if (had && indentWidth > 0)
        newline();
    out += '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prefix(false);
    out += '[';
    stack.push_back(Level{false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (stack.empty() || stack.back().isObject)
        panic("JsonWriter: endArray() outside an array");
    const bool had = stack.back().hasEntries;
    stack.pop_back();
    if (had && indentWidth > 0)
        newline();
    out += ']';
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    if (stack.empty() || !stack.back().isObject)
        panic("JsonWriter: key() outside an object");
    prefix(true);
    appendEscaped(out, k);
    out += indentWidth > 0 ? ": " : ":";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    prefix(false);
    appendEscaped(out, v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    prefix(false);
    if (!std::isfinite(v)) {
        out += "null";
        return *this;
    }
    // Integral values below 1e17 have at most 17 digits, which "%.17g"
    // prints in full with no exponent: the integer formatter writes
    // the same bytes, faster.  -0.0 keeps its sign through "%.17g".
    if (std::fabs(v) < 1e17 && std::trunc(v) == v &&
        !(v == 0.0 && std::signbit(v))) {
        appendInt(out, static_cast<std::int64_t>(v));
        return *this;
    }
    // to_chars' general format at a given precision is defined as
    // printf's "%.*g", in the C locale whatever the global one is.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 17);
    out.append(buf, r.ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prefix(false);
    appendInt(out, v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prefix(false);
    appendInt(out, v);
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    prefix(false);
    out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prefix(false);
    out += "null";
    return *this;
}

void
JsonWriter::appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    // Bytes that need no escape go in as whole runs.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xf]};
            out.append(esc, sizeof esc);
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string r;
    r.reserve(s.size() + 2);
    appendEscaped(r, s);
    return r;
}

// --- parser ----------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &k) const
{
    if (type != Type::Object)
        return nullptr;
    const auto it = object.find(k);
    return it == object.end() ? nullptr : &it->second;
}

namespace
{

/** Recursive-descent JSON parser over a string_view cursor. */
struct JsonParser
{
    std::string_view text;
    std::size_t pos = 0;
    std::string error;
    int depth = 0;
    static constexpr int kMaxDepth = 200;

    bool
    fail(const std::string &what)
    {
        if (error.empty())
            error = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return false;
        ++pos;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("bad literal");
        pos += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!consume('"'))
            return fail("expected string");
        out.clear();
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                return fail("truncated escape");
            const char e = text[pos++];
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (pos + 4 > text.size())
                    return fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return fail("bad \\u escape");
                }
                // UTF-8 encode (surrogate pairs are passed through as
                // two separate code units -- good enough for a linter).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &v)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-'))
            ++pos;
        if (pos == start)
            return fail("expected number");
        const std::string num(text.substr(start, pos - start));
        char *end = nullptr;
        v.number = std::strtod(num.c_str(), &end);
        if (end == nullptr || *end != '\0')
            return fail("malformed number");
        v.type = JsonValue::Type::Number;
        return true;
    }

    bool
    parseValue(JsonValue &v)
    {
        if (++depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        bool ok = false;
        switch (text[pos]) {
          case '{': {
            ++pos;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (consume('}')) {
                ok = true;
                break;
            }
            for (;;) {
                std::string k;
                if (!parseString(k))
                    return false;
                if (!consume(':'))
                    return fail("expected ':'");
                JsonValue member;
                if (!parseValue(member))
                    return false;
                v.object.emplace(std::move(k), std::move(member));
                if (consume(','))
                    continue;
                if (consume('}')) {
                    ok = true;
                    break;
                }
                return fail("expected ',' or '}'");
            }
            break;
          }
          case '[': {
            ++pos;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (consume(']')) {
                ok = true;
                break;
            }
            for (;;) {
                JsonValue item;
                if (!parseValue(item))
                    return false;
                v.array.push_back(std::move(item));
                if (consume(','))
                    continue;
                if (consume(']')) {
                    ok = true;
                    break;
                }
                return fail("expected ',' or ']'");
            }
            break;
          }
          case '"':
            v.type = JsonValue::Type::String;
            ok = parseString(v.str);
            break;
          case 't':
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            ok = literal("true");
            break;
          case 'f':
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            ok = literal("false");
            break;
          case 'n':
            v.type = JsonValue::Type::Null;
            ok = literal("null");
            break;
          default:
            ok = parseNumber(v);
        }
        --depth;
        return ok;
    }
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string *error)
{
    JsonParser p{text};
    out = JsonValue{};
    if (!p.parseValue(out)) {
        if (error)
            *error = p.error;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        if (error)
            *error = "trailing garbage at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace usfq
