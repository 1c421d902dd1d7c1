#include "core/sim/scenario.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "core/sim/registry.hh"
#include "dram/trace.hh"
#include "testbed/platform.hh"

namespace memtherm
{

namespace
{

/**
 * Shortest exact decimal form, for sweep-point labels and messages.
 * Non-finite values, which JSON cannot spell, render as nan / inf /
 * -inf, so the validation that rejects them can still name them.
 */
std::string
numStr(double v)
{
    if (std::isnan(v))
        return "nan";
    if (std::isinf(v))
        return v > 0.0 ? "inf" : "-inf";
    return Json::numberToString(v);
}

/** The policy lineup valid for platform (Chapter 5) scenarios. */
std::vector<std::string>
platformPolicyNames()
{
    std::vector<std::string> names = ch5PolicyNames();
    names.insert(names.begin(), "No-limit");
    return names;
}

[[noreturn]] void
specError(const ScenarioSpec &spec, const std::string &what)
{
    std::string where =
        spec.name.empty() ? "scenario" : "scenario '" + spec.name + "'";
    fatal(where + ": " + what);
}

/** Reject members we do not understand — typos fail loudly. */
void
checkMembers(const Json &obj, const std::string &where,
             const std::vector<std::string> &allowed)
{
    for (const auto &[key, v] : obj.asObject()) {
        bool known = false;
        for (const auto &a : allowed)
            known |= (a == key);
        if (!known) {
            fatal("scenario: unknown member '" + key + "' in " + where +
                  " (valid: " + joinNames(allowed) + ")");
        }
    }
}

double
memberNumber(const Json &obj, const std::string &key)
{
    const Json &v = obj.at(key);
    if (!v.isNumber())
        fatal("scenario: member '" + key + "' must be a number");
    return v.asNumber();
}

int
memberInt(const Json &obj, const std::string &key)
{
    double v = memberNumber(obj, key);
    if (v != std::floor(v))
        fatal("scenario: member '" + key + "' must be an integer");
    return jsonInteger<int>(v, "scenario: member '" + key + "'");
}

std::string
memberString(const Json &obj, const std::string &key)
{
    const Json &v = obj.at(key);
    if (!v.isString())
        fatal("scenario: member '" + key + "' must be a string");
    return v.asString();
}

std::vector<std::string>
stringList(const Json &v, const std::string &key)
{
    if (!v.isArray())
        fatal("scenario: member '" + key + "' must be an array of strings");
    std::vector<std::string> out;
    for (const Json &e : v.asArray()) {
        if (!e.isString())
            fatal("scenario: member '" + key + "' must contain strings");
        out.push_back(e.asString());
    }
    return out;
}

std::vector<double>
numberList(const Json &v, const std::string &key)
{
    if (!v.isArray())
        fatal("scenario: member '" + key + "' must be an array of numbers");
    std::vector<double> out;
    for (const Json &e : v.asArray()) {
        if (!e.isNumber())
            fatal("scenario: member '" + key + "' must contain numbers");
        out.push_back(e.asNumber());
    }
    return out;
}

template <class T>
Json
toJsonList(const std::vector<T> &v)
{
    Json a = Json::array();
    for (const T &x : v)
        a.push(x);
    return a;
}

/**
 * One coordinate value of a sweep axis, by value type: its `config`
 * member parse (@c scalar), its `sweep` array parse (@c list), its JSON
 * form (@c emit) and its point-label rendering (@c label).
 */
template <class T>
struct Codec;

template <>
struct Codec<std::string>
{
    static std::string scalar(const Json &cfg, const std::string &key)
    {
        return memberString(cfg, key);
    }
    static std::vector<std::string> list(const Json &v,
                                         const std::string &key)
    {
        return stringList(v, "sweep." + key);
    }
    static Json emit(const std::string &v) { return Json(v); }
    static std::string label(const std::string &v) { return v; }
};

template <>
struct Codec<double>
{
    static double scalar(const Json &cfg, const std::string &key)
    {
        return memberNumber(cfg, key);
    }
    static std::vector<double> list(const Json &v, const std::string &key)
    {
        return numberList(v, "sweep." + key);
    }
    static Json emit(double v) { return Json(v); }
    static std::string label(double v) { return numStr(v); }
};

template <>
struct Codec<int>
{
    static int scalar(const Json &cfg, const std::string &key)
    {
        return memberInt(cfg, key);
    }
    static std::vector<int> list(const Json &v, const std::string &key)
    {
        std::vector<int> out;
        for (double x : numberList(v, "sweep." + key)) {
            if (x != std::floor(x)) {
                fatal("scenario: sweep." + key + " must contain integers");
            }
            out.push_back(jsonInteger<int>(x, "scenario: sweep." + key +
                                                  " value"));
        }
        return out;
    }
    static Json emit(int v) { return Json(v); }
    static std::string label(int v) { return std::to_string(v); }
};

/**
 * Codec of the catalog-name-or-inline value types (MemoryOrgSpec, ...):
 * Codec<T> supplies @c parse (one value at @p where), @c emit and the
 * @c kArrayOf phrase of the sweep's not-an-array error.
 */
template <class T>
struct InlineCodec
{
    static T scalar(const Json &cfg, const std::string &key)
    {
        return Codec<T>::parse(cfg.at(key), "'config." + key + "'");
    }
    static std::vector<T> list(const Json &v, const std::string &key)
    {
        if (!v.isArray()) {
            fatal("scenario: 'sweep." + key + "' must be an array of " +
                  Codec<T>::kArrayOf);
        }
        std::vector<T> out;
        for (const Json &e : v.asArray())
            out.push_back(Codec<T>::parse(e, "'sweep." + key + "' entry"));
        return out;
    }
    static std::string label(const T &v) { return v.label(); }
};

// A default-constructed inline value means "keep the base value" and has
// no serialized form — callers filter those out; emitting one (e.g. an
// empty sweep entry) is a spec bug, not UB.

template <>
struct Codec<MemoryOrgSpec> : InlineCodec<MemoryOrgSpec>
{
    static constexpr const char *kArrayOf =
        "catalog names or {channels, dimms} objects";

    static Json emit(const MemoryOrgSpec &o)
    {
        if (!o.name.empty())
            return Json(o.name);
        if (!o.org)
            fatal("scenario: empty memory organization");
        Json j = Json::object();
        j.set("channels", o.org->nChannels);
        j.set("dimms", o.org->nDimmsPerChannel);
        return j;
    }

    /** A catalog name or {channels, dimms}. */
    static MemoryOrgSpec parse(const Json &v, const std::string &where)
    {
        MemoryOrgSpec s;
        if (v.isString()) {
            s.name = v.asString();
            if (s.name.empty())
                fatal("scenario: " + where + " name must not be empty");
            return s;
        }
        if (v.isObject()) {
            checkMembers(v, where, {"channels", "dimms"});
            if (!v.find("channels") || !v.find("dimms")) {
                fatal("scenario: " + where +
                      " needs both 'channels' and 'dimms'");
            }
            MemoryOrgConfig o;
            o.nChannels = memberInt(v, "channels");
            o.nDimmsPerChannel = memberInt(v, "dimms");
            s.org = o;
            return s;
        }
        fatal("scenario: " + where +
              " must be a catalog name or a {channels, dimms} object");
    }
};

template <>
struct Codec<TrafficShapeSpec> : InlineCodec<TrafficShapeSpec>
{
    static constexpr const char *kArrayOf =
        "catalog shape names or per-DIMM share vectors";

    static Json emit(const TrafficShapeSpec &t)
    {
        if (!t.name.empty())
            return Json(t.name);
        if (t.shares.empty())
            fatal("scenario: empty traffic shape");
        return toJsonList(t.shares);
    }

    /** A catalog name or an inline share vector. */
    static TrafficShapeSpec parse(const Json &v, const std::string &where)
    {
        TrafficShapeSpec s;
        if (v.isString()) {
            s.name = v.asString();
            if (s.name.empty())
                fatal("scenario: " + where + " name must not be empty");
            return s;
        }
        if (v.isArray()) {
            s.shares = numberList(v, where);
            if (s.shares.empty()) {
                fatal("scenario: " + where +
                      " share vector must not be empty");
            }
            return s;
        }
        fatal("scenario: " + where +
              " must be a catalog shape name or an array of per-DIMM "
              "shares");
    }
};

template <>
struct Codec<RefreshSpec> : InlineCodec<RefreshSpec>
{
    static constexpr const char *kArrayOf =
        "catalog refresh model names or band tables";

    static Json emit(const RefreshSpec &r)
    {
        if (!r.name.empty())
            return Json(r.name);
        if (r.bands.empty())
            fatal("scenario: empty refresh model");
        Json a = Json::array();
        for (const RefreshBand &b : r.bands) {
            Json j = Json::object();
            j.set("min_temp", b.minTemp);
            j.set("bw_fraction", b.bwFraction);
            j.set("dram_power_w", b.dramPower);
            // latency_mult defaults to 1 on parse, so omitting the
            // default keeps the round trip lossless and the common case
            // terse.
            if (b.latencyMult != 1.0)
                j.set("latency_mult", b.latencyMult);
            a.push(std::move(j));
        }
        return a;
    }

    /** A catalog name or an inline band table. */
    static RefreshSpec parse(const Json &v, const std::string &where)
    {
        RefreshSpec s;
        if (v.isString()) {
            s.name = v.asString();
            if (s.name.empty())
                fatal("scenario: " + where + " name must not be empty");
            return s;
        }
        if (v.isArray()) {
            for (const Json &e : v.asArray()) {
                if (!e.isObject())
                    fatal("scenario: " + where + " bands must be objects");
                checkMembers(e, where + " band",
                             {"min_temp", "bw_fraction", "dram_power_w",
                              "latency_mult"});
                if (!e.find("min_temp") || !e.find("bw_fraction") ||
                    !e.find("dram_power_w")) {
                    fatal("scenario: " + where +
                          " band needs 'min_temp', 'bw_fraction' and "
                          "'dram_power_w'");
                }
                RefreshBand b;
                b.minTemp = memberNumber(e, "min_temp");
                b.bwFraction = memberNumber(e, "bw_fraction");
                b.dramPower = memberNumber(e, "dram_power_w");
                if (e.find("latency_mult"))
                    b.latencyMult = memberNumber(e, "latency_mult");
                s.bands.push_back(b);
            }
            if (s.bands.empty()) {
                fatal("scenario: " + where +
                      " band table must not be empty");
            }
            return s;
        }
        fatal("scenario: " + where +
              " must be a catalog refresh model name or an array of "
              "{min_temp, bw_fraction, dram_power_w[, latency_mult]} "
              "bands");
    }
};

template <>
struct Codec<ThermalModelSpec> : InlineCodec<ThermalModelSpec>
{
    static constexpr const char *kArrayOf =
        "catalog thermal model names or {grid_x, grid_z[, bank_weights]} "
        "objects";

    static Json emit(const ThermalModelSpec &t)
    {
        if (!t.name.empty())
            return Json(t.name);
        if (!t.grid)
            fatal("scenario: empty thermal model");
        Json j = Json::object();
        j.set("grid_x", t.grid->x);
        j.set("grid_z", t.grid->z);
        if (!t.grid->weights.empty())
            j.set("bank_weights", toJsonList(t.grid->weights));
        return j;
    }

    /** A catalog name or an inline grid object. */
    static ThermalModelSpec parse(const Json &v, const std::string &where)
    {
        ThermalModelSpec s;
        if (v.isString()) {
            s.name = v.asString();
            if (s.name.empty())
                fatal("scenario: " + where + " name must not be empty");
            return s;
        }
        if (v.isObject()) {
            checkMembers(v, where, {"grid_x", "grid_z", "bank_weights"});
            if (!v.find("grid_x") || !v.find("grid_z")) {
                fatal("scenario: " + where +
                      " needs both 'grid_x' and 'grid_z'");
            }
            BankGridConfig g;
            g.x = memberInt(v, "grid_x");
            g.z = memberInt(v, "grid_z");
            if (v.find("bank_weights")) {
                g.weights = numberList(v.at("bank_weights"),
                                       where + " bank_weights");
            }
            s.grid = std::move(g);
            return s;
        }
        fatal("scenario: " + where +
              " must be a catalog thermal model name or a "
              "{grid_x, grid_z[, bank_weights]} object");
    }
};

/**
 * Traffic shapes resolve against every organization the grid can visit
 * (the memory_org sweep, else the knob, else the base configuration's
 * chain). Resolving per organization checks an inline vector's arity
 * against each one up front — the error names both axes — and rejects
 * two swept shapes that resolve to the same share vector under any
 * organization, matching the memory_org axis's resolved-value
 * semantics: same-label entries would clobber a result key, and
 * distinctly-named coincidences (front_heavy and linear_taper on a
 * two-DIMM chain; every shape on a one-DIMM chain) would silently
 * duplicate a measurement the sweep presents as two distinct
 * distributions.
 */
void
checkTrafficShapes(const ScenarioSpec &spec)
{
    struct OrgPoint
    {
        MemoryOrgConfig org;
        std::string desc;
    };
    std::vector<OrgPoint> orgPoints;
    for (const auto &o : spec.sweepMemoryOrg) {
        orgPoints.push_back({o.resolve(), "sweep.memory_org organization '" +
                                              o.label() + "'"});
    }
    if (orgPoints.empty() && !spec.memoryOrg.empty()) {
        orgPoints.push_back({spec.memoryOrg.resolve(),
                             "config.memory_org organization '" +
                                 spec.memoryOrg.label() + "'"});
    }
    if (orgPoints.empty()) {
        MemoryOrgConfig def = SimConfig{}.org;
        orgPoints.push_back(
            {def, "the base organization (" +
                      std::to_string(def.nChannels) + "x" +
                      std::to_string(def.nDimmsPerChannel) + ")"});
    }
    auto resolveShape = [&](const TrafficShapeSpec &shape,
                            const std::string &what, const OrgPoint &op) {
        // Named shapes fit any chain; empty specs fail in resolve().
        if (shape.name.empty() && !shape.shares.empty() &&
            static_cast<int>(shape.shares.size()) !=
                op.org.nDimmsPerChannel) {
            specError(spec,
                      what + " '" + shape.label() + "' has " +
                          std::to_string(shape.shares.size()) +
                          " share(s) but " + op.desc + " has " +
                          std::to_string(op.org.nDimmsPerChannel) +
                          " DIMM(s) per channel");
        }
        return shape.resolve(op.org.nDimmsPerChannel);
    };
    for (const OrgPoint &op : orgPoints) {
        if (!spec.trafficShape.empty())
            (void)resolveShape(spec.trafficShape, "config.traffic_shape", op);
        std::vector<std::vector<double>> shapes;
        for (const auto &sh : spec.sweepTrafficShape)
            shapes.push_back(
                resolveShape(sh, "sweep.traffic_shape entry", op));
        for (std::size_t i = 0; i < shapes.size(); ++i) {
            for (std::size_t j = 0; j < i; ++j) {
                if (shapes[i] != shapes[j])
                    continue;
                const std::string a = spec.sweepTrafficShape[i].label();
                const std::string b = spec.sweepTrafficShape[j].label();
                std::string what =
                    "duplicate sweep.traffic_shape shape '" + a + "'";
                if (a != b)
                    what += " (same shares as '" + b + "' under " +
                            op.desc + ")";
                specError(spec, what);
            }
        }
    }
}

/** Range rule of a numeric axis (or knob) value. */
struct Bound
{
    double min;
    bool exclusive; ///< the value must be > min (else >= min)
};

/** Reject a non-finite or out-of-bound value; @p what names it. */
void
checkValue(const ScenarioSpec &spec, double v, const std::string &what,
           const std::optional<Bound> &bound)
{
    if (!std::isfinite(v))
        specError(spec, what + " must be finite");
    if (bound && (bound->exclusive ? v <= bound->min : v < bound->min)) {
        specError(spec, what + " must be " +
                            (bound->exclusive ? "> " : ">= ") +
                            numStr(bound->min));
    }
}

/** An edit of a grid point's configuration. */
using ConfigEdit = std::function<void(SimConfig &)>;

/**
 * One sweep axis after resolution: the edit of its `config` knob (empty
 * when unset) and, per swept value, its label coordinate ("org=2x4")
 * and edit. Resolution checks every value, so the edits cannot fail.
 */
struct ResolvedAxis
{
    struct Coordinate
    {
        std::string label;
        ConfigEdit edit;
    };
    ConfigEdit base;
    std::vector<Coordinate> values;
};

/** What differs between the axes besides their value type. */
struct AxisInfo
{
    /// `config.<key>` and `sweep.<key>`.
    const char *key;
    /// Label coordinate name, e.g. org in "org=2x4"; nullptr: the key.
    const char *label;
    /// Position among the `config` members (the unknown-member list and
    /// toJson's member order, which predate the table).
    int configRank;
    /// Platform scenarios reject the knob and the sweep with this
    /// message; nullptr accepts both.
    const char *platformError = nullptr;
    /// Numeric axes: every value must be finite and honor this bound.
    std::optional<Bound> bound = std::nullopt;
    /// Duplicate sweep values are "duplicate sweep.<key> <noun> '<v>'".
    /// nullptr: no generic rule (traffic shapes compare per
    /// organization, in checkTrafficShapes).
    const char *noun = "value";
    /// nullptr: values compare by label, before any name resolves; else
    /// by resolved value, reporting "(same <sameAs> as '<other>')".
    const char *sameAs = nullptr;
    /// Whether the `config` knob is set; nullptr: it is non-empty.
    bool (*isSet)(const ScenarioSpec &) = nullptr;
    /// Checks across the whole axis, run once its values resolve.
    void (*validate)(const ScenarioSpec &) = nullptr;
};

/**
 * One sweep axis: everything the scenario layer does with the
 * `config.<key>` knob and the `sweep.<key>` list of one dimension.
 * lower(), toJson() and fromJson() are loops over the axes() table.
 */
class Axis : public AxisInfo
{
  public:
    explicit Axis(const AxisInfo &info) : AxisInfo(info) {}
    Axis(const Axis &) = delete;
    Axis &operator=(const Axis &) = delete;
    virtual ~Axis() = default;

    /** The `config` knob is set. */
    virtual bool knobSet(const ScenarioSpec &s) const = 0;
    /** Number of swept values. */
    virtual std::size_t swept(const ScenarioSpec &s) const = 0;

    /** Parse the (present) `config.<key>` member of @p cfg. */
    virtual void parse(ScenarioSpec &s, const Json &cfg) const = 0;
    /** Parse the `sweep.<key>` member @p v. */
    virtual void parseSweep(ScenarioSpec &s, const Json &v) const = 0;
    virtual Json emit(const ScenarioSpec &s) const = 0;
    virtual Json emitSweep(const ScenarioSpec &s) const = 0;

    /** Finite/bound check of the knob, then of the swept values. */
    virtual void checkKnob(const ScenarioSpec &s) const = 0;
    virtual void checkSweep(const ScenarioSpec &s) const = 0;
    /** Duplicate check of axes that compare by label. */
    virtual void checkLabelDuplicates(const ScenarioSpec &s) const = 0;
    /** Resolve every value (and check by-value duplicates). */
    virtual ResolvedAxis resolve(const ScenarioSpec &s) const = 0;
};

template <class S>
struct IsOptional : std::false_type
{
};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type
{
};

/**
 * An axis whose values are T, held in ScenarioSpec as the knob member
 * @c knob (a T or a std::optional<T>) and the sweep member @c sweep.
 * @c resolveFn maps a value to what @c applyFn writes into a SimConfig.
 */
template <class T, class S, class Resolve, class Apply>
class AxisOf final : public Axis
{
    using R = std::invoke_result_t<const Resolve &, const ScenarioSpec &,
                                   const T &>;

  public:
    AxisOf(const AxisInfo &info, S ScenarioSpec::*knob,
           std::vector<T> ScenarioSpec::*sweep, Resolve resolve,
           Apply apply)
        : Axis(info), knob(knob), sweep(sweep), resolveFn(resolve),
          applyFn(apply)
    {
    }

    bool knobSet(const ScenarioSpec &s) const override
    {
        if (isSet)
            return isSet(s);
        if constexpr (IsOptional<S>::value)
            return (s.*knob).has_value();
        else
            return !(s.*knob).empty();
    }
    std::size_t swept(const ScenarioSpec &s) const override
    {
        return (s.*sweep).size();
    }

    void parse(ScenarioSpec &s, const Json &cfg) const override
    {
        s.*knob = Codec<T>::scalar(cfg, key);
    }
    void parseSweep(ScenarioSpec &s, const Json &v) const override
    {
        s.*sweep = Codec<T>::list(v, key);
    }
    Json emit(const ScenarioSpec &s) const override
    {
        return Codec<T>::emit(value(s));
    }
    Json emitSweep(const ScenarioSpec &s) const override
    {
        Json a = Json::array();
        for (const T &v : s.*sweep)
            a.push(Codec<T>::emit(v));
        return a;
    }

    void checkKnob(const ScenarioSpec &s) const override
    {
        if constexpr (std::is_arithmetic_v<T>) {
            if (knobSet(s))
                checkValue(s, value(s), key, bound);
        }
    }
    void checkSweep(const ScenarioSpec &s) const override
    {
        if constexpr (std::is_arithmetic_v<T>) {
            // Integer sweeps word it differently (a documented string).
            const std::string what =
                std::is_integral_v<T>
                    ? std::string(key) + " sweep values"
                    : "sweep." + std::string(key) + " values";
            for (T v : s.*sweep)
                checkValue(s, v, what, bound);
        }
    }
    void checkLabelDuplicates(const ScenarioSpec &s) const override
    {
        if (!noun || sameAs)
            return;
        const std::vector<T> &vals = s.*sweep;
        for (std::size_t i = 0; i < vals.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (Codec<T>::label(vals[i]) == Codec<T>::label(vals[j]))
                    duplicate(s, i, j);
    }
    ResolvedAxis resolve(const ScenarioSpec &s) const override
    {
        ResolvedAxis out;
        if (knobSet(s))
            out.base = edit(resolveFn(s, value(s)));
        const std::vector<T> &vals = s.*sweep;
        std::vector<R> resolved;
        resolved.reserve(vals.size());
        for (const T &v : vals)
            resolved.push_back(resolveFn(s, v));
        if constexpr (std::equality_comparable<R>) {
            for (std::size_t i = 0; noun && sameAs && i < vals.size(); ++i)
                for (std::size_t j = 0; j < i; ++j)
                    if (resolved[i] == resolved[j])
                        duplicate(s, i, j);
        }
        if (validate)
            validate(s);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            out.values.push_back({std::string(label ? label : key) + "=" +
                                      Codec<T>::label(vals[i]),
                                  edit(std::move(resolved[i]))});
        }
        return out;
    }

  private:
    const T &value(const ScenarioSpec &s) const
    {
        if constexpr (IsOptional<S>::value)
            return *(s.*knob);
        else
            return s.*knob;
    }

    ConfigEdit edit(R r) const
    {
        return [apply = applyFn, r = std::move(r)](SimConfig &c) {
            apply(c, r);
        };
    }

    /** Swept values @p i and @p j collide. */
    [[noreturn]] void duplicate(const ScenarioSpec &s, std::size_t i,
                                std::size_t j) const
    {
        const std::string a = Codec<T>::label((s.*sweep)[i]);
        const std::string b = Codec<T>::label((s.*sweep)[j]);
        std::string what = std::string("duplicate sweep.") + key + " " +
                           noun + " '" + a + "'";
        if (a != b)
            what += std::string(" (same ") + sameAs + " as '" + b + "')";
        specError(s, what);
    }

    S ScenarioSpec::*knob;
    std::vector<T> ScenarioSpec::*sweep;
    Resolve resolveFn;
    Apply applyFn;
};

template <class T, class S, class Resolve, class Apply>
std::unique_ptr<const Axis>
axis(S ScenarioSpec::*knob, std::vector<T> ScenarioSpec::*sweep,
     const AxisInfo &info, Resolve resolve, Apply apply)
{
    return std::make_unique<AxisOf<T, S, Resolve, Apply>>(
        info, knob, sweep, resolve, apply);
}

/** Resolution of the axes whose values are used as written. */
constexpr auto asWritten = [](const ScenarioSpec &, const auto &v) {
    return v;
};

/**
 * The sweep axes, in grid order: the first axis varies slowest, and a
 * point's label lists its coordinates in this order. A new axis is one
 * entry here plus its ScenarioSpec members.
 */
const std::vector<std::unique_ptr<const Axis>> &
axes()
{
    static const auto table = [] {
        std::vector<std::unique_ptr<const Axis>> t;
        t.push_back(axis(
            &ScenarioSpec::memoryOrg, &ScenarioSpec::sweepMemoryOrg,
            {.key = "memory_org",
             .label = "org",
             .configRank = 4,
             .platformError =
                 "platform scenarios fix the memory organization (the "
                 "testbed hardware fixes its DIMM population); remove the "
                 "memory_org member and sweep",
             .noun = "organization",
             .sameAs = "organization"},
            [](const ScenarioSpec &, const MemoryOrgSpec &o) {
                return o.resolve();
            },
            [](SimConfig &c, const MemoryOrgConfig &o) { c.org = o; }));
        // Shapes resolve against each point's organization (set by the
        // axis above), after checkTrafficShapes vetted every pairing.
        t.push_back(axis(
            &ScenarioSpec::trafficShape, &ScenarioSpec::sweepTrafficShape,
            {.key = "traffic_shape",
             .label = "shape",
             .configRank = 5,
             .platformError =
                 "platform scenarios use the testbed's measured traffic "
                 "distribution; remove the traffic_shape member and sweep",
             .noun = nullptr,
             .validate = checkTrafficShapes},
            asWritten,
            [](SimConfig &c, const TrafficShapeSpec &t) {
                c.trafficShares = t.resolve(c.org.nDimmsPerChannel);
            }));
        // The base configuration already carries the cooling knob's
        // setup; a swept setup replaces the fields makeCh4Config derives
        // from it.
        t.push_back(axis(
            &ScenarioSpec::cooling, &ScenarioSpec::sweepCooling,
            {.key = "cooling",
             .label = nullptr,
             .configRank = 0,
             .platformError = "platform scenarios fix the cooling setup; "
                              "remove the cooling sweep",
             .isSet =
                 [](const ScenarioSpec &s) { return s.platform.empty(); }},
            [](const ScenarioSpec &s, const std::string &name) {
                return makeCh4Config(coolingByName(name),
                                     s.ambient == "integrated");
            },
            [](SimConfig &c, const SimConfig &ch4) {
                c.cooling = ch4.cooling;
                c.ambient = ch4.ambient;
            }));
        t.push_back(axis(
            &ScenarioSpec::tInlet, &ScenarioSpec::sweepTInlet,
            {.key = "t_inlet", .label = "inlet", .configRank = 9},
            asWritten,
            [](SimConfig &c, double v) { c.ambient.tInlet = v; }));
        t.push_back(axis(
            &ScenarioSpec::copiesPerApp, &ScenarioSpec::sweepCopies,
            {.key = "copies_per_app", .label = "copies", .configRank = 10,
             .bound = Bound{1.0, false}},
            asWritten, [](SimConfig &c, int v) { c.copiesPerApp = v; }));
        t.push_back(axis(
            &ScenarioSpec::sensorNoiseSigma, &ScenarioSpec::sweepSensorNoise,
            {.key = "sensor_noise_sigma", .label = "noise", .configRank = 16,
             .bound = Bound{0.0, false}},
            asWritten,
            [](SimConfig &c, double v) { c.sensorNoiseSigma = v; }));
        t.push_back(axis(
            &ScenarioSpec::dtmInterval, &ScenarioSpec::sweepDtmInterval,
            {.key = "dtm_interval", .label = "dtm", .configRank = 13,
             .bound = Bound{0.0, true}},
            asWritten, [](SimConfig &c, double v) { c.dtmInterval = v; }));
        const char *dvfsOrLadder =
            "platform scenarios fix the DVFS table and derive the "
            "emergency ladders from the platform; remove the "
            "dvfs/emergency_levels members and sweeps";
        t.push_back(axis(
            &ScenarioSpec::emergencyLevels,
            &ScenarioSpec::sweepEmergencyLevels,
            {.key = "emergency_levels", .label = "levels", .configRank = 2,
             .platformError = dvfsOrLadder},
            [](const ScenarioSpec &, const std::string &name) {
                return emergencyLevelsByName(name);
            },
            [](SimConfig &c, const EmergencyLevels &l) {
                c.emergencyLevels = l;
            }));
        t.push_back(axis(
            &ScenarioSpec::dvfs, &ScenarioSpec::sweepDvfs,
            {.key = "dvfs", .label = nullptr, .configRank = 3,
             .platformError = dvfsOrLadder},
            // The Chapter 4 CDVFS schemes' action tables select
            // operating points 0..3.
            [](const ScenarioSpec &s, const std::string &name) {
                DvfsTable t = DvfsRegistry::instance().byName(name);
                for (const auto &p : s.policies) {
                    if ((p == "DTM-CDVFS" || p == "DTM-CDVFS+PID") &&
                        t.levels() < 4) {
                        specError(s, "DVFS table '" + name + "' has " +
                                         std::to_string(t.levels()) +
                                         " levels; DTM-CDVFS selects "
                                         "levels 0..3");
                    }
                }
                return t;
            },
            [](SimConfig &c, const DvfsTable &d) { c.dvfs = d; }));
        t.push_back(axis(
            &ScenarioSpec::refresh, &ScenarioSpec::sweepRefresh,
            {.key = "refresh",
             .label = nullptr,
             .configRank = 6,
             .platformError =
                 "platform scenarios measure the testbed's real DRAM, "
                 "refresh included; remove the refresh member and sweep",
             .noun = "model",
             .sameAs = "model"},
            [](const ScenarioSpec &, const RefreshSpec &r) {
                return r.resolve();
            },
            [](SimConfig &c, const RefreshModel &m) { c.refresh = m; }));
        t.push_back(axis(
            &ScenarioSpec::thermalModel, &ScenarioSpec::sweepThermalModel,
            {.key = "thermal_model",
             .label = "thermal",
             .configRank = 7,
             .platformError =
                 "platform scenarios measure the testbed's real DIMMs at "
                 "DIMM granularity; remove the thermal_model member and "
                 "sweep",
             .noun = "model",
             .sameAs = "thermal model"},
            [](const ScenarioSpec &, const ThermalModelSpec &t) {
                return t.resolve();
            },
            [](SimConfig &c, const ThermalModelConfig &m) {
                c.bankGrid = m.grid;
            }));
        return t;
    }();
    return table;
}

/**
 * The `config` members in their documented order: the knobs that are
 * not sweep axes, with each axis inserted at its configRank.
 */
const std::vector<std::string> &
configMembers()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out = {
            "ambient",        "trace",          "instr_scale",
            "max_sim_time",   "remap_interval", "remap_hysteresis",
            "sensor_quant",   "sensor_seed"};
        std::vector<const Axis *> byRank;
        for (const auto &a : axes())
            byRank.push_back(a.get());
        std::sort(byRank.begin(), byRank.end(),
                  [](const Axis *a, const Axis *b) {
                      return a->configRank < b->configRank;
                  });
        for (const Axis *a : byRank)
            out.insert(out.begin() + a->configRank, a->key);
        return out;
    }();
    return names;
}

const Axis *
findAxis(const std::string &key)
{
    for (const auto &a : axes())
        if (key == a->key)
            return a.get();
    return nullptr;
}

} // namespace

const std::vector<std::string> &
sweepAxisKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const auto &a : axes())
            out.push_back(a->key);
        return out;
    }();
    return keys;
}


std::string
MemoryOrgSpec::label() const
{
    if (!name.empty())
        return name;
    if (org) {
        return std::to_string(org->nChannels) + "x" +
               std::to_string(org->nDimmsPerChannel);
    }
    return "";
}

MemoryOrgConfig
MemoryOrgSpec::resolve() const
{
    if (!name.empty())
        return memoryOrgByName(name);
    if (!org)
        fatal("scenario: empty memory organization");
    if (org->nChannels < 1 || org->nDimmsPerChannel < 1) {
        fatal("scenario: memory organization " + label() +
              " must have >= 1 channel and >= 1 DIMM per channel");
    }
    return *org;
}

std::string
TrafficShapeSpec::label() const
{
    if (!name.empty())
        return name;
    // '|' keeps the coordinate free of ',' and '=', which the sweep
    // label grammar reserves for separating coordinates.
    std::string out;
    for (double s : shares) {
        if (!out.empty())
            out += "|";
        out += numStr(s);
    }
    return out;
}

std::vector<double>
TrafficShapeSpec::resolve(int n_dimms) const
{
    if (!name.empty())
        return trafficShapeByName(name, n_dimms);
    if (shares.empty())
        fatal("scenario: empty traffic shape");
    double sum = 0.0;
    for (double s : shares) {
        if (!std::isfinite(s)) {
            fatal("scenario: traffic shape " + label() +
                  " shares must be finite");
        }
        if (s < 0.0) {
            fatal("scenario: traffic shape " + label() +
                  " shares must not be negative");
        }
        sum += s;
    }
    if (std::abs(sum - 1.0) >= 1e-9) {
        fatal("scenario: traffic shape " + label() +
              " shares must sum to 1 (got " + numStr(sum) + ")");
    }
    if (static_cast<int>(shares.size()) != n_dimms) {
        fatal("scenario: traffic shape " + label() + " has " +
              std::to_string(shares.size()) +
              " share(s) but the memory organization has " +
              std::to_string(n_dimms) + " DIMM(s) per channel");
    }
    return shares;
}

std::string
RefreshSpec::label() const
{
    if (!name.empty())
        return name;
    // '|' between bands and ':' within keep the coordinate free of ','
    // and '=', which the sweep label grammar reserves.
    std::string out;
    for (const RefreshBand &b : bands) {
        if (!out.empty())
            out += "|";
        out += numStr(b.minTemp) + ":" + numStr(b.bwFraction) + ":" +
               numStr(b.dramPower);
        if (b.latencyMult != 1.0)
            out += ":" + numStr(b.latencyMult);
    }
    return out;
}

RefreshModel
RefreshSpec::resolve() const
{
    if (!name.empty())
        return refreshModelByName(name);
    if (bands.empty())
        fatal("scenario: empty refresh model");
    for (const RefreshBand &b : bands) {
        if (!std::isfinite(b.minTemp) || !std::isfinite(b.bwFraction) ||
            !std::isfinite(b.dramPower) || !std::isfinite(b.latencyMult)) {
            fatal("scenario: refresh model " + label() +
                  " bands must be finite");
        }
        if (b.bwFraction < 0.0 || b.bwFraction >= 1.0) {
            fatal("scenario: refresh model " + label() +
                  " bw_fraction must be in [0, 1)");
        }
        if (b.dramPower < 0.0) {
            fatal("scenario: refresh model " + label() +
                  " dram_power_w must be >= 0");
        }
        if (b.latencyMult <= 0.0) {
            fatal("scenario: refresh model " + label() +
                  " latency_mult must be > 0");
        }
    }
    for (std::size_t i = 1; i < bands.size(); ++i) {
        if (!(bands[i].minTemp > bands[i - 1].minTemp)) {
            fatal("scenario: refresh model " + label() +
                  " bands must have strictly increasing min_temp");
        }
    }
    RefreshModel m;
    m.bands = bands;
    return m;
}

std::string
ThermalModelSpec::label() const
{
    if (!name.empty())
        return name;
    if (!grid)
        return "";
    // ':' and '|' keep the coordinate free of ',' and '=', which the
    // sweep label grammar reserves for separating coordinates.
    std::string out =
        std::to_string(grid->x) + "x" + std::to_string(grid->z);
    if (!grid->weights.empty()) {
        out += ":";
        for (std::size_t i = 0; i < grid->weights.size(); ++i) {
            if (i)
                out += "|";
            out += numStr(grid->weights[i]);
        }
    }
    return out;
}

ThermalModelConfig
ThermalModelSpec::resolve() const
{
    if (!name.empty())
        return thermalModelByName(name);
    if (!grid)
        fatal("scenario: empty thermal model");
    if (grid->x < 1 || grid->z < 1) {
        fatal("scenario: thermal model " + label() +
              " grid dimensions must be >= 1");
    }
    if (grid->cells() > 1024) {
        fatal("scenario: thermal model " + label() + " has " +
              std::to_string(grid->cells()) +
              " cells per DIMM; the limit is 1024");
    }
    if (!grid->weights.empty()) {
        if (grid->weights.size() !=
            static_cast<std::size_t>(grid->cells())) {
            fatal("scenario: thermal model " + label() + " has " +
                  std::to_string(grid->weights.size()) +
                  " bank weight(s) but the grid has " +
                  std::to_string(grid->cells()) + " cell(s)");
        }
        double sum = 0.0;
        for (double w : grid->weights) {
            if (!std::isfinite(w)) {
                fatal("scenario: thermal model " + label() +
                      " bank weights must be finite");
            }
            if (w < 0.0) {
                fatal("scenario: thermal model " + label() +
                      " bank weights must not be negative");
            }
            sum += w;
        }
        if (std::abs(sum - 1.0) >= 1e-9) {
            fatal("scenario: thermal model " + label() +
                  " bank weights must sum to 1 (got " + numStr(sum) +
                  ")");
        }
    }
    ThermalModelConfig m;
    m.grid = grid;
    return m;
}

std::size_t
LoweredScenario::totalRuns() const
{
    std::size_t n = 0;
    for (const auto &p : points)
        n += p.runs.size();
    return n;
}

void
ScenarioSpec::validate() const
{
    (void)lower(); // lowering resolves every name and checks the axes
}

LoweredScenario
ScenarioSpec::lower() const
{
    if (workloads.empty())
        specError(*this, "no workloads given");
    if (policies.empty())
        specError(*this, "no policies given");

    LoweredScenario out;
    out.workloads = workloads;
    out.policies = policies;

    std::vector<Workload> ws;
    ws.reserve(workloads.size());
    for (const auto &n : workloads)
        ws.push_back(workloadByName(n));

    const bool onPlatform = !platform.empty();
    std::optional<Platform> plat;
    if (onPlatform) {
        plat = platformByName(platform);
        // In config member order, so the first conflict reported does
        // not depend on the member order of the document.
        for (const std::string &key : configMembers()) {
            const Axis *a = findAxis(key);
            if (a && a->platformError &&
                (a->knobSet(*this) || a->swept(*this))) {
                specError(*this, a->platformError);
            }
            if (key == "ambient" && (cooling != ScenarioSpec{}.cooling ||
                                     ambient != ScenarioSpec{}.ambient)) {
                specError(*this, "platform scenarios fix cooling and "
                                 "ambient; remove those members");
            }
            if (key == "trace" && !trace.empty()) {
                specError(*this,
                          "platform scenarios use the testbed's measured "
                          "traffic distribution; remove the trace member");
            }
            if (key == "remap_interval" &&
                (remapInterval || remapHysteresis)) {
                specError(*this,
                          "platform scenarios use the testbed's measured "
                          "traffic distribution, so remap policies have "
                          "nothing to redistribute; remove the "
                          "remap_interval/remap_hysteresis members");
            }
        }
        const auto valid = platformPolicyNames();
        for (const auto &p : policies) {
            bool known = false;
            for (const auto &v : valid)
                known |= (v == p);
            if (!known) {
                specError(*this, "unknown platform policy '" + p +
                                 "' (valid: " + joinNames(valid) + ")");
            }
        }
    } else {
        // Resolving the base cooling/ambient validates both names even
        // when a sweep replaces them below.
        (void)ambientByName(ambient, coolingByName(cooling));
        const auto &reg = PolicyRegistry::instance();
        for (const auto &p : policies) {
            if (!reg.contains(p)) {
                specError(*this, "unknown policy '" + p + "' (valid: " +
                                 joinNames(reg.names()) + ")");
            }
        }
    }

    // --- knob sanity: non-finite values would otherwise be
    // indistinguishable from "keep the base value" downstream -----------
    for (const auto &a : axes())
        a->checkKnob(*this);
    auto checkKnob = [&](const std::optional<double> &v, const char *key,
                         Bound bound) {
        if (v)
            checkValue(*this, *v, key, bound);
    };
    checkKnob(instrScale, "instr_scale", {0.0, true});
    checkKnob(maxSimTime, "max_sim_time", {0.0, true});
    checkKnob(remapInterval, "remap_interval", {0.0, true});
    checkKnob(remapHysteresis, "remap_hysteresis", {0.0, false});
    checkKnob(sensorQuant, "sensor_quant", {0.0, false});

    // --- trace vs modeled traffic: the trace IS the measured per-DIMM
    // distribution, so an analytic shape alongside it could only be
    // silently ignored or silently override the measurement. -------------
    if (!trace.empty() &&
        (!trafficShape.empty() || !sweepTrafficShape.empty())) {
        specError(*this,
                  "'trace' supplies the per-DIMM traffic distribution; "
                  "remove the traffic_shape member and sweep");
    }

    for (const auto &a : axes())
        a->checkSweep(*this);

    // --- duplicates: SuiteResults is keyed [workload][policy] and sweep
    // points are keyed by label, so a duplicate anywhere would silently
    // clobber a result. Numeric axes compare by their label rendering,
    // which is exact (shortest-round-trip formatting); the axes of
    // catalog-or-inline values compare by resolved value while
    // resolving below, so e.g. "ch4_4x4" and an inline {4, 4} cannot
    // silently collapse onto one sweep point. --------------------------
    auto rejectDuplicates = [&](const std::vector<std::string> &keys,
                                const std::string &what) {
        for (std::size_t i = 0; i < keys.size(); ++i)
            for (std::size_t j = 0; j < i; ++j)
                if (keys[i] == keys[j])
                    specError(*this,
                              "duplicate " + what + " '" + keys[i] + "'");
    };
    rejectDuplicates(workloads, "workload");
    rejectDuplicates(policies, "policy");
    for (const auto &a : axes())
        a->checkLabelDuplicates(*this);

    // --- resolve every name and inline value up front (a catalog lookup
    // throws listing the valid keys), once for the whole grid. ----------
    std::vector<ResolvedAxis> resolved;
    resolved.reserve(axes().size());
    for (const auto &a : axes())
        resolved.push_back(a->resolve(*this));

    // A trace decodes into the per-bank heat weights, so inline
    // bank_weights alongside one could only fight the measurement.
    if (!trace.empty()) {
        auto hasWeights = [](const ThermalModelSpec &t) {
            const auto grid = t.empty() ? std::nullopt : t.resolve().grid;
            return grid && !grid->weights.empty();
        };
        bool inlineWeights = hasWeights(thermalModel);
        for (const auto &t : sweepThermalModel)
            inlineWeights |= hasWeights(t);
        if (inlineWeights) {
            specError(*this,
                      "'trace' supplies the per-bank activity weights; "
                      "remove the thermal model's bank_weights");
        }
    }

    // Load the trace once; it decodes below once per distinct
    // organization and grid resolution, the only inputs of a profile.
    std::vector<TraceRecord> traceRecords;
    if (!trace.empty())
        traceRecords = loadTrace(trace);
    struct Decoded
    {
        int channels, dimms, cells;
        TraceProfile profile;
    };
    std::vector<Decoded> decoded;

    const SimConfig base =
        onPlatform ? plat->sim
                   : makeCh4Config(coolingByName(cooling),
                                   ambient == "integrated");

    // --- the grid: an odometer over the axes, last axis fastest. An
    // empty axis contributes one "keep the base value" slot, so no
    // in-band sentinel value can be swallowed.
    std::vector<std::size_t> ix(resolved.size(), 0);
    for (;;) {
        LoweredScenario::Point pt;
        SimConfig cfg = base;
        // An axis's coordinate supersedes its scalar knob.
        for (std::size_t a = 0; a < resolved.size(); ++a) {
            const ResolvedAxis &r = resolved[a];
            if (!r.values.empty()) {
                const auto &coord = r.values[ix[a]];
                pt.label += (pt.label.empty() ? "" : ",") + coord.label;
                coord.edit(cfg);
            } else if (r.base) {
                r.base(cfg);
            }
        }
        if (pt.label.empty())
            pt.label = "base";
        if (instrScale)
            cfg.instrScale = *instrScale;
        if (maxSimTime)
            cfg.maxSimTime = *maxSimTime;
        if (remapInterval)
            cfg.remapInterval = *remapInterval;
        if (remapHysteresis)
            cfg.remapHysteresis = *remapHysteresis;
        if (sensorQuant)
            cfg.sensorQuant = *sensorQuant;
        if (sensorSeed)
            cfg.sensorSeed = *sensorSeed;

        // A trace decodes against the point's organization and grid:
        // per-DIMM shares always, per-bank heat weights when the
        // bank-grid model is active at this point.
        if (!traceRecords.empty()) {
            const int nc = cfg.org.nChannels;
            const int nd = cfg.org.nDimmsPerChannel;
            const int cells = cfg.bankGrid ? cfg.bankGrid->cells() : 0;
            auto it = std::find_if(
                decoded.begin(), decoded.end(), [&](const Decoded &d) {
                    return d.channels == nc && d.dimms == nd &&
                           d.cells == cells;
                });
            if (it == decoded.end()) {
                decoded.push_back(
                    {nc, nd, cells, decodeTrace(traceRecords, nc, nd, cells)});
                it = decoded.end() - 1;
            }
            cfg.trafficShares = it->profile.dimmShares;
            if (cfg.bankGrid)
                cfg.bankGrid->weights = it->profile.bankWeights;
        }

        // The simulator panics on a decision period below its trace
        // window; report it as a configuration error instead.
        if (cfg.dtmInterval < cfg.window) {
            specError(*this, "dtm_interval " + numStr(cfg.dtmInterval) +
                                 " is below the simulator window (" +
                                 numStr(cfg.window) + " s)");
        }

        // Remap boundaries must land on DTM decision boundaries — the
        // remap policies only run inside DTM decisions, so a period
        // below the window or off the dtm_interval grid would silently
        // remap late. Checked only when the knob is set: the default
        // period deliberately stays out of dtm_interval sweeps that
        // never name a remap policy.
        if (remapInterval) {
            if (cfg.remapInterval < cfg.window) {
                specError(*this,
                          "remap_interval " + numStr(cfg.remapInterval) +
                              " is below the simulator window (" +
                              numStr(cfg.window) + " s)");
            }
            double ratio = cfg.remapInterval / cfg.dtmInterval;
            double whole = std::round(ratio);
            if (whole < 1.0 ||
                std::abs(ratio - whole) > 1e-9 * std::max(1.0, ratio)) {
                specError(*this,
                          "remap_interval " + numStr(cfg.remapInterval) +
                              " is not a whole multiple of dtm_interval " +
                              numStr(cfg.dtmInterval) +
                              " (remap decisions run inside DTM "
                              "decisions, so the periods must nest)");
            }
        }

        pt.cfg = cfg;
        pt.runs.reserve(ws.size() * policies.size());
        if (onPlatform) {
            Platform p = *plat;
            p.sim = cfg;
            for (const Workload &w : ws)
                for (const auto &pol : policies)
                    pt.runs.push_back(ch5EngineRun(p, w, pol));
        } else {
            for (const Workload &w : ws)
                for (const auto &pol : policies)
                    pt.runs.push_back({cfg, w, pol, {}});
        }
        out.points.push_back(std::move(pt));

        // Advance the odometer; carry out of axis 0 means we are done.
        std::size_t k = ix.size();
        for (; k > 0; --k) {
            if (++ix[k - 1] < resolved[k - 1].values.size())
                break;
            ix[k - 1] = 0;
        }
        if (k == 0)
            break;
    }

    // Equivalence classes over the global run order (see the header's
    // LoweredScenario::classes contract). Lowering just emitted the runs
    // workload-major with the policy fastest, which is exactly the
    // contiguity the classes assert.
    {
        std::size_t base = 0;
        const std::size_t n_pol = policies.size();
        for (const auto &pt : out.points) {
            if (onPlatform) {
                // ch5EngineRun specializes the config per policy
                // (SR1500AL "No-limit" runs at a 26 C room ambient), so
                // platform runs never share a prefix.
                for (std::size_t r = 0; r < pt.runs.size(); ++r)
                    out.classes.push_back({base + r, 1});
            } else {
                for (std::size_t w = 0; w < ws.size(); ++w)
                    out.classes.push_back({base + w * n_pol, n_pol});
            }
            base += pt.runs.size();
        }
    }
    return out;
}

Json
ScenarioSpec::toJson() const
{
    Json j = Json::object();
    j.set("name", name);
    if (!description.empty())
        j.set("description", description);
    if (!platform.empty())
        j.set("platform", platform);

    Json knobs = Json::object();
    for (const auto &a : axes())
        if (a->knobSet(*this))
            knobs.set(a->key, a->emit(*this));
    if (platform.empty())
        knobs.set("ambient", ambient);
    if (!trace.empty())
        knobs.set("trace", trace);
    if (instrScale)
        knobs.set("instr_scale", *instrScale);
    if (maxSimTime)
        knobs.set("max_sim_time", *maxSimTime);
    if (remapInterval)
        knobs.set("remap_interval", *remapInterval);
    if (remapHysteresis)
        knobs.set("remap_hysteresis", *remapHysteresis);
    if (sensorQuant)
        knobs.set("sensor_quant", *sensorQuant);
    if (sensorSeed)
        knobs.set("sensor_seed", static_cast<double>(*sensorSeed));
    if (!knobs.asObject().empty()) {
        Json cfg = Json::object();
        for (const auto &key : configMembers())
            if (const Json *v = knobs.find(key))
                cfg.set(key, *v);
        j.set("config", std::move(cfg));
    }

    j.set("workloads", toJsonList(workloads));
    j.set("policies", toJsonList(policies));

    Json sweep = Json::object();
    for (const auto &a : axes())
        if (a->swept(*this))
            sweep.set(a->key, a->emitSweep(*this));
    if (!sweep.asObject().empty())
        j.set("sweep", std::move(sweep));

    return j;
}

ScenarioSpec
ScenarioSpec::fromJson(const Json &j)
{
    if (!j.isObject())
        fatal("scenario: document must be a JSON object");
    checkMembers(j, "the scenario",
                 {"name", "description", "platform", "config", "workloads",
                  "policies", "sweep"});

    ScenarioSpec s;
    if (j.find("name"))
        s.name = memberString(j, "name");
    if (j.find("description"))
        s.description = memberString(j, "description");
    if (j.find("platform"))
        s.platform = memberString(j, "platform");

    if (const Json *cfg = j.find("config")) {
        if (!cfg->isObject())
            fatal("scenario: 'config' must be an object");
        checkMembers(*cfg, "'config'", configMembers());
        // In documented member order, so which bad member reports first
        // does not depend on the document's member order.
        for (const std::string &key : configMembers()) {
            if (!cfg->find(key))
                continue;
            if (const Axis *a = findAxis(key)) {
                a->parse(s, *cfg);
            } else if (key == "ambient") {
                s.ambient = memberString(*cfg, key);
            } else if (key == "trace") {
                s.trace = memberString(*cfg, key);
                if (s.trace.empty())
                    fatal("scenario: 'trace' path must not be empty");
            } else if (key == "sensor_seed") {
                double v = memberNumber(*cfg, key);
                if (v != std::floor(v) || v < 0.0)
                    fatal("scenario: 'sensor_seed' must be a non-negative "
                          "integer");
                s.sensorSeed =
                    jsonInteger<std::uint64_t>(v, "scenario: 'sensor_seed'");
            } else { // the remaining knobs are plain numbers
                const double v = memberNumber(*cfg, key);
                if (key == "instr_scale")
                    s.instrScale = v;
                else if (key == "max_sim_time")
                    s.maxSimTime = v;
                else if (key == "remap_interval")
                    s.remapInterval = v;
                else if (key == "remap_hysteresis")
                    s.remapHysteresis = v;
                else if (key == "sensor_quant")
                    s.sensorQuant = v;
            }
        }
    }

    if (j.find("workloads"))
        s.workloads = stringList(j.at("workloads"), "workloads");
    if (j.find("policies"))
        s.policies = stringList(j.at("policies"), "policies");

    if (const Json *sweep = j.find("sweep")) {
        if (!sweep->isObject())
            fatal("scenario: 'sweep' must be an object");
        checkMembers(*sweep, "'sweep'", sweepAxisKeys());
        for (const auto &a : axes())
            if (const Json *v = sweep->find(a->key))
                a->parseSweep(s, *v);
    }
    return s;
}

ScenarioSpec
ScenarioSpec::load(const std::string &path)
{
    return fromJson(Json::load(path));
}

void
ScenarioSpec::save(const std::string &path) const
{
    toJson().save(path);
}

void
applyFaultInjection(std::vector<ExperimentEngine::Run> &runs)
{
    const char *env = std::getenv("MEMTHERM_FAULT_FAIL_RUN");
    if (!env)
        return;
    char *end = nullptr;
    unsigned long k = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') {
        warn("MEMTHERM_FAULT_FAIL_RUN='" + std::string(env) +
             "' is not a run index; ignoring");
        return;
    }
    if (k >= runs.size())
        return;
    runs[k].factory = [k](const SimConfig &,
                          const std::string &) -> std::unique_ptr<DtmPolicy> {
        fatal("injected failure (MEMTHERM_FAULT_FAIL_RUN=" +
              std::to_string(k) + ")");
    };
}

namespace
{

/**
 * Sink behind runScenario(): positional results plus per-run failure
 * records, so one throwing run cannot discard the rest of the grid.
 */
class ScenarioCollectSink : public RunSink
{
  public:
    explicit ScenarioCollectSink(std::size_t n) : results(n), ok(n, false)
    {
    }

    void onResult(std::size_t i, SimResult &&r, double) override
    {
        results[i] = std::move(r);
        ok[i] = true;
    }

    void onFailure(std::size_t i, std::exception_ptr err) override
    {
        std::string what = "unknown error";
        try {
            std::rethrow_exception(err);
        } catch (const std::exception &e) {
            what = e.what();
        } catch (...) {
        }
        failures.emplace_back(i, what);
    }

    std::vector<SimResult> results;
    std::vector<bool> ok;
    std::vector<std::pair<std::size_t, std::string>> failures;
};

/**
 * Shared body of runScenario()/runScenarioBatched(): lower, execute
 * (scalar when @p batch_width is 0, batched otherwise), assemble.
 */
ScenarioResults
runScenarioImpl(const ScenarioSpec &spec, ExperimentEngine &engine,
                int batch_width, BatchStats *stats)
{
    LoweredScenario low = spec.lower();

    std::vector<ExperimentEngine::Run> all;
    all.reserve(low.totalRuns());
    for (const auto &pt : low.points)
        for (const auto &r : pt.runs)
            all.push_back(r);
    applyFaultInjection(all);

    ScenarioCollectSink sink(all.size());
    if (batch_width == 0)
        engine.run(all, sink);
    else
        engine.runBatched(all, low.classes, batch_width, sink, stats);

    ScenarioResults out;
    out.scenario = spec.name;
    std::size_t k = 0;
    for (const auto &pt : low.points) {
        ScenarioResults::Point rp;
        rp.label = pt.label;
        for (const auto &w : low.workloads)
            for (const auto &p : low.policies) {
                if (sink.ok[k])
                    rp.suite[w][p] = std::move(sink.results[k]);
                ++k;
            }
        out.points.push_back(std::move(rp));
    }
    // Failure records carry the full grid coordinate; completion order
    // is nondeterministic, so sort by index for stable output.
    std::sort(sink.failures.begin(), sink.failures.end());
    for (const auto &[i, what] : sink.failures) {
        const std::size_t per_point = low.workloads.size() *
                                      low.policies.size();
        RunError e;
        e.index = i;
        e.point = low.points[i / per_point].label;
        e.workload = low.workloads[(i % per_point) / low.policies.size()];
        e.policy = low.policies[i % low.policies.size()];
        e.error = what;
        out.errors.push_back(std::move(e));
    }
    return out;
}

} // namespace

ScenarioResults
runScenario(const ScenarioSpec &spec, ExperimentEngine &engine)
{
    return runScenarioImpl(spec, engine, 0, nullptr);
}

ScenarioResults
runScenario(const ScenarioSpec &spec)
{
    ExperimentEngine engine;
    return runScenario(spec, engine);
}

ScenarioResults
runScenarioBatched(const ScenarioSpec &spec, ExperimentEngine &engine,
                   int batch_width, BatchStats *stats)
{
    return runScenarioImpl(spec, engine, batch_width, stats);
}

namespace
{

template <class Out>
void
writeTrace(Out &o, std::string_view key, const TimeSeries &t)
{
    o.key(key);
    o.beginObject();
    jsonMember(o, "period_s", t.period());
    jsonMember(o, "values", t.values());
    o.endObject();
}

/**
 * The SimResult schema, written once for both forms: @p o is a
 * JsonBuilder (toJson's tree) or a JsonTextWriter (the stream record's
 * text), so the two cannot drift.
 */
template <class Out>
void
writeSimResult(Out &o, const SimResult &r, bool traces)
{
    o.beginObject();
    jsonMember(o, "workload", r.workload);
    jsonMember(o, "policy", r.policy);
    jsonMember(o, "completed", r.completed);
    jsonMember(o, "running_time_s", r.runningTime);
    jsonMember(o, "total_instr", r.totalInstr);
    jsonMember(o, "read_gb", r.totalReadGB);
    jsonMember(o, "write_gb", r.totalWriteGB);
    jsonMember(o, "l2_misses", r.totalL2Misses);
    jsonMember(o, "mem_energy_j", r.memEnergy);
    jsonMember(o, "cpu_energy_j", r.cpuEnergy);
    jsonMember(o, "max_amb_c", r.maxAmb);
    jsonMember(o, "max_dram_c", r.maxDram);
    jsonMember(o, "time_above_amb_tdp_s", r.timeAboveAmbTdp);
    jsonMember(o, "time_above_dram_tdp_s", r.timeAboveDramTdp);
    jsonMember(o, "peak_amb_per_dimm_c", r.peakAmbPerDimm);
    jsonMember(o, "peak_dram_per_dimm_c", r.peakDramPerDimm);
    jsonMember(o, "avg_power_per_dimm_w", r.avgPowerPerDimm);
    // Schema v2 members, present only when the run's refresh model was
    // active (the vectors are sized iff SimConfig::refresh is non-empty),
    // so every pre-refresh golden keeps its exact member set.
    if (!r.refreshBwLossPerDimm.empty()) {
        jsonMember(o, "refresh_bw_loss_per_dimm_gb", r.refreshBwLossPerDimm);
        jsonMember(o, "refresh_energy_per_dimm_j", r.refreshEnergyPerDimm);
    }
    // Schema v3 members, present only when the run's bank-grid thermal
    // model was active (the vector is sized iff SimConfig::bankGrid is
    // set), so every lumped-model golden keeps its exact member set.
    if (!r.peakBankDramPerDimm.empty()) {
        o.key("bank_grid");
        o.beginObject();
        jsonMember(o, "x", static_cast<double>(r.bankGridX));
        jsonMember(o, "z", static_cast<double>(r.bankGridZ));
        o.endObject();
        const std::size_t cells = static_cast<std::size_t>(r.bankGridX) *
                                  static_cast<std::size_t>(r.bankGridZ);
        const std::span<const double> peaks(r.peakBankDramPerDimm);
        o.key("peak_bank_dram_c");
        o.beginArray();
        for (std::size_t base = 0; base < peaks.size(); base += cells)
            o.value(peaks.subspan(base, cells));
        o.endArray();
    }
    if (traces) {
        o.key("traces");
        o.beginObject();
        writeTrace(o, "amb_c", r.ambTrace);
        writeTrace(o, "dram_c", r.dramTrace);
        writeTrace(o, "inlet_c", r.inletTrace);
        writeTrace(o, "cpu_power_w", r.cpuPowerTrace);
        writeTrace(o, "bw_gbps", r.bwTrace);
        o.endObject();
    }
    o.endObject();
}

} // namespace

Json
toJson(const SimResult &r, bool traces)
{
    JsonBuilder b;
    writeSimResult(b, r, traces);
    return b.take();
}

void
writeJson(JsonTextWriter &out, const SimResult &r, bool traces)
{
    writeSimResult(out, r, traces);
}

Json
toJson(const SuiteResults &r, bool traces)
{
    Json j = Json::object();
    for (const auto &[w, per_policy] : r) {
        Json pw = Json::object();
        for (const auto &[p, res] : per_policy)
            pw.set(p, toJson(res, traces));
        j.set(w, std::move(pw));
    }
    return j;
}

int
resultSchemaVersionOf(const Json &doc, const std::string &where,
                      int max_version)
{
    const Json *v = doc.isObject() ? doc.find("schema_version") : nullptr;
    if (!v)
        return 1; // version-absent legacy file
    if (!v->isNumber() || v->asNumber() != std::floor(v->asNumber()) ||
        v->asNumber() < 1) {
        fatal(where + ": 'schema_version' must be a positive integer");
    }
    // Compared before converting: a huge version is newer, not UB.
    if (v->asNumber() > max_version) {
        fatal(where + ": schema version " + numStr(v->asNumber()) +
              " is newer than this binary's " +
              std::to_string(max_version) +
              "; upgrade memtherm to read this file");
    }
    return jsonInteger<int>(v->asNumber(), where + ": 'schema_version'");
}

Json
toJson(const ScenarioResults &r, bool traces)
{
    Json j = Json::object();
    j.set("scenario", r.scenario);
    // Schema versioning (kResultSchemaVersion): stamped with the
    // *minimum* version the document's members imply — 3 only when a
    // v3-only member (the per-bank peaks) is present, 2 when only
    // v2-only members (the per-DIMM refresh fields) are, nothing for
    // the historical member set — so documents keep their exact
    // historical bytes until they actually use a newer field.
    bool has_v2 = false, has_v3 = false;
    for (const auto &pt : r.points)
        for (const auto &[w, per_policy] : pt.suite)
            for (const auto &[p, res] : per_policy) {
                has_v2 |= !res.refreshBwLossPerDimm.empty();
                has_v3 |= !res.peakBankDramPerDimm.empty();
            }
    if (has_v3)
        j.set("schema_version", 3);
    else if (has_v2)
        j.set("schema_version", 2);
    Json pts = Json::array();
    for (const auto &pt : r.points) {
        Json p = Json::object();
        p.set("label", pt.label);
        p.set("results", toJson(pt.suite, traces));
        pts.push(std::move(p));
    }
    j.set("points", std::move(pts));
    // Emitted only when runs failed, so clean results (and the
    // committed goldens) keep their exact historical shape.
    if (!r.errors.empty()) {
        Json errs = Json::array();
        for (const auto &e : r.errors) {
            Json o = Json::object();
            o.set("index", static_cast<std::uint64_t>(e.index));
            o.set("point", e.point);
            o.set("workload", e.workload);
            o.set("policy", e.policy);
            o.set("error", e.error);
            errs.push(std::move(o));
        }
        j.set("errors", std::move(errs));
    }
    return j;
}

} // namespace memtherm
