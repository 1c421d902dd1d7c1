/**
 * @file
 * Minimal JSON value: parse, build, serialize.
 *
 * One serialization path for everything memtherm writes or reads as
 * JSON — scenario files (core/sim/scenario.hh), result dumps, and the
 * perf-smoke trajectory file. Deliberately small: no SAX interface, no
 * comments, no NaN/Inf extensions. Design goals:
 *
 *  - Lossless round-trips: objects preserve insertion order and numbers
 *    serialize via shortest-round-trip formatting (std::to_chars), so
 *    parse -> dump -> parse reproduces the original value exactly.
 *  - Proper string escaping (control characters, quotes, backslashes)
 *    on output; \uXXXX escapes (including surrogate pairs) on input.
 *  - Errors are FatalError (common/logging.hh) with line:column context,
 *    so callers and tests can catch misconfiguration uniformly.
 */

#ifndef MEMTHERM_COMMON_JSON_HH
#define MEMTHERM_COMMON_JSON_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace memtherm
{

/**
 * A JSON document node. Numbers are stored as double (integers within
 * 2^53 print without a decimal point); objects keep insertion order.
 */
class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    /// Ordered key/value storage of an object node.
    using Members = std::vector<std::pair<std::string, Json>>;

    Json() : ty(Type::Null) {}
    Json(bool b) : ty(Type::Bool), boolean(b) {}
    Json(double v) : ty(Type::Number), number(v) {}
    Json(int v) : ty(Type::Number), number(v) {}
    Json(std::int64_t v) : ty(Type::Number),
                           number(static_cast<double>(v)) {}
    Json(std::uint64_t v) : ty(Type::Number),
                            number(static_cast<double>(v)) {}
    Json(const char *s) : ty(Type::String), str(s) {}
    Json(std::string s) : ty(Type::String), str(std::move(s)) {}

    /** Empty array node. */
    static Json array() { Json j; j.ty = Type::Array; return j; }
    /** Empty object node. */
    static Json object() { Json j; j.ty = Type::Object; return j; }

    Type type() const { return ty; }
    bool isNull() const { return ty == Type::Null; }
    bool isBool() const { return ty == Type::Bool; }
    bool isNumber() const { return ty == Type::Number; }
    bool isString() const { return ty == Type::String; }
    bool isArray() const { return ty == Type::Array; }
    bool isObject() const { return ty == Type::Object; }

    /** Typed accessors; fatal() on a type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const std::vector<Json> &asArray() const;
    const Members &asObject() const;

    /** Append to an array node (converts a Null node to an array). */
    Json &push(Json v);

    /**
     * Set (or overwrite) an object member; converts a Null node to an
     * object. Returns *this so building chains.
     */
    Json &set(const std::string &key, Json v);

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;

    /** Member lookup; fatal() (naming the key) when absent. */
    const Json &at(const std::string &key) const;

    /** Deep structural equality (object member order matters). */
    bool operator==(const Json &o) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /**
     * Serialize. @p indent > 0 pretty-prints with that many spaces per
     * level; 0 emits the compact single-line form. A trailing newline is
     * appended when pretty-printing (files end in \n).
     */
    std::string dump(int indent = 2) const;

    /** Parse a complete document; FatalError with line:col on errors. */
    static Json parse(const std::string &text);

    /** Read and parse a file; FatalError on I/O or syntax errors. */
    static Json load(const std::string &path);

    /**
     * dump() to a file; FatalError on I/O errors. The write is
     * crash-atomic (write to "<path>.tmp", then rename), so a killed
     * process never leaves a truncated document at @p path.
     */
    void save(const std::string &path, int indent = 2) const;

    /**
     * The number formatting dump() uses: shortest decimal form that
     * round-trips the double exactly; integers within the exactly-
     * representable range print without a decimal point. Shared so
     * other layers (e.g. sweep-point labels) render numbers the same
     * way. FatalError on non-finite values.
     */
    static std::string numberToString(double v);

  private:
    void write(std::string &out, int indent, int depth) const;

    Type ty;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> arr;
    Members obj;
};

/**
 * Builds a Json tree from a sequence of writer calls. It and
 * JsonTextWriter take the same calls, so a schema written once as a
 * template over the writer serializes both ways (see toJson(SimResult)
 * in core/sim/scenario.hh): the tree's dump(0) and the text writer's
 * bytes are identical. Calls must form one well-nested value; a value
 * inside an object must follow its key().
 */
class JsonBuilder
{
  public:
    void beginObject() { open(Json::object()); }
    void endObject() { close(); }
    void beginArray() { open(Json::array()); }
    void endArray() { close(); }
    void key(std::string_view k) { pendingKey.assign(k); }
    void value(double v) { add(Json(v)); }
    void value(bool b) { add(Json(b)); }
    void value(std::string_view s) { add(Json(std::string(s))); }
    void value(const char *s) { add(Json(s)); }
    /** An array of numbers. */
    void value(std::span<const double> v);

    /** The finished value (Null before any call). */
    Json take() { return std::move(root); }

  private:
    void open(Json node);
    void close();
    void add(Json v);

    std::vector<Json> stack;       ///< open containers, innermost last
    std::vector<std::string> keys; ///< each open container's own key
    std::string pendingKey;
    Json root;
};

/**
 * Writes compact JSON text straight into a caller-owned buffer: the
 * bytes Json::dump(0) gives for the tree JsonBuilder would build from
 * the same calls, without building it (no node per number). Appends to
 * @p out; reusing one buffer across values keeps its capacity.
 * FatalError "json: cannot serialize a non-finite number" as dump()
 * does, leaving the buffer partly written.
 */
class JsonTextWriter
{
  public:
    explicit JsonTextWriter(std::string &out) : out(out) {}

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();
    void key(std::string_view k);
    void value(double v);
    void value(bool b);
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }
    /** An array of numbers. */
    void value(std::span<const double> v);

  private:
    /** Write the ", " before a value unless it is the first at its
     *  level or follows its key. */
    void separate();

    std::string &out;
    bool first = true;  ///< nothing written yet at the current level
    bool keyed = false; ///< a key was written; its value comes next
};

/** key() then value(), for either writer. */
template <class Out, class V>
void
jsonMember(Out &out, std::string_view key, const V &v)
{
    out.key(key);
    out.value(v);
}

/**
 * A JSON number read as an integer of type @p Int; FatalError
 * "<what> must be an integer in [<min>, <max>] (got <v>)" when @p v is
 * fractional or outside Int's range. A static_cast of such a double is
 * undefined behaviour, so every JSON number read as an integer goes
 * through here.
 */
template <class Int>
Int
jsonInteger(double v, const std::string &what)
{
    using Limits = std::numeric_limits<Int>;
    // min() is 0 or -2^digits and the exclusive bound is 2^digits, so
    // both convert to double exactly.
    const double lo = static_cast<double>(Limits::min());
    const double hi = std::ldexp(1.0, Limits::digits);
    if (!(v >= lo && v < hi) || v != std::floor(v)) {
        fatal(what + " must be an integer in [" +
              std::to_string(Limits::min()) + ", " +
              std::to_string(Limits::max()) + "] (got " +
              (std::isfinite(v) ? Json::numberToString(v) : "non-finite") +
              ")");
    }
    return static_cast<Int>(v);
}

} // namespace memtherm

#endif // MEMTHERM_COMMON_JSON_HH
