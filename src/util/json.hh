/**
 * @file
 * Minimal JSON support with no third-party dependency: a writer for
 * the machine-readable bench artifacts, the service wire format and
 * Perfetto traces (docs/observability.md), and a small
 * recursive-descent parser used by tests and the artifact linter to
 * validate what was written.
 */

#ifndef USFQ_UTIL_JSON_HH
#define USFQ_UTIL_JSON_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace usfq
{

/**
 * JSON writer appending to a caller-owned string: begin/end nesting
 * with automatic commas and indentation, full string escaping, and
 * non-finite doubles mapped to null so the output always parses.
 *
 * Numbers print exactly as printf would, independent of the locale:
 * integers as "%lld" / "%llu", finite doubles as "%.17g" (integral
 * doubles below 1e17 in magnitude, other than -0.0, take the integer
 * formatter, which prints the same digits).
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::string &sink, int indent = 2)
        : out(sink), indentWidth(indent)
    {
    }

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key (must be inside an object). */
    JsonWriter &key(std::string_view k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v) { return value(std::string_view(v)); }
    JsonWriter &value(double v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(int v) { return value(static_cast<std::int64_t>(v)); }
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(std::string_view k, T &&v)
    {
        key(k);
        return value(std::forward<T>(v));
    }

    /** Escape @p s as a quoted JSON string literal. */
    static std::string escape(std::string_view s);

  private:
    /** Comma/indent bookkeeping before a new value or key. */
    void prefix(bool is_key);

    /** Newline plus the current nesting's indentation. */
    void newline();

    /** Append @p s as a quoted, escaped literal. */
    static void appendEscaped(std::string &out, std::string_view s);

    struct Level
    {
        bool isObject;
        bool hasEntries = false;
    };

    std::string &out;
    int indentWidth;
    std::vector<Level> stack;
    bool keyPending = false;
};

/** A parsed JSON document node (maps keep key order sorted). */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }

    /** Object member lookup; null if absent or not an object. */
    const JsonValue *find(const std::string &k) const;

    /**
     * Read member @p k into @p out; an absent member leaves @p out as
     * it is.  A present one must have @p out's type -- a string, true
     * or false, a number, or for int and std::uint64_t an integral
     * number that fits -- else this returns false with "'<k>' must be
     * ..." in @p err and @p out untouched.
     */
    template <typename T>
    bool member(const std::string &k, T &out, std::string *err) const;
};

/**
 * Parse a complete JSON document.  Returns false (and sets @p error,
 * when given) on malformed input or trailing garbage.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *error = nullptr);

} // namespace usfq

#endif // USFQ_UTIL_JSON_HH
