#include "api/spec.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string_view>

#include "util/json.hh"

namespace usfq::api
{

namespace
{

/** FNV-1a over a byte range, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnvU64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(h, &v, sizeof(v));
}

std::uint64_t
fnvStr(std::uint64_t h, const std::string &s)
{
    h = fnvU64(h, s.size());
    return fnv1a(h, s.data(), s.size());
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/** Fetch a number member; returns @p dflt when absent. */
double
numberOr(const JsonValue &obj, const std::string &key, double dflt)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->type == JsonValue::Type::Number
               ? v->number
               : dflt;
}

bool
boolOr(const JsonValue &obj, const std::string &key, bool dflt)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->type == JsonValue::Type::Bool ? v->boolean
                                                            : dflt;
}

std::string
stringOr(const JsonValue &obj, const std::string &key,
         const std::string &dflt)
{
    const JsonValue *v = obj.find(key);
    return v != nullptr && v->type == JsonValue::Type::String ? v->str
                                                              : dflt;
}

bool
fail(std::string *err, const std::string &message)
{
    if (err != nullptr)
        *err = message;
    return false;
}

} // namespace

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Dpu:
        return "dpu";
    case WorkloadKind::Pe:
        return "pe";
    case WorkloadKind::Fir:
        return "fir";
    case WorkloadKind::Inverter:
        return "inverter";
    case WorkloadKind::NocMesh:
        return "noc";
    case WorkloadKind::Gen:
        return "gen";
    }
    return "?";
}

bool
parseWorkloadKind(const std::string &s, WorkloadKind &out)
{
    if (s == "dpu")
        out = WorkloadKind::Dpu;
    else if (s == "pe")
        out = WorkloadKind::Pe;
    else if (s == "fir")
        out = WorkloadKind::Fir;
    else if (s == "inverter")
        out = WorkloadKind::Inverter;
    else if (s == "noc")
        out = WorkloadKind::NocMesh;
    else if (s == "gen")
        out = WorkloadKind::Gen;
    else
        return false;
    return true;
}

bool
NetlistSpec::validate(std::string *err) const
{
    if (name.empty())
        return fail(err, "spec: name must be non-empty");
    if (bits < 2 || bits > 16)
        return fail(err, "spec: bits must be in [2, 16]");
    if ((kind == WorkloadKind::Dpu || kind == WorkloadKind::Fir) &&
        (taps < 1 || taps > 1024))
        return fail(err, "spec: taps must be in [1, 1024]");
    if (kind == WorkloadKind::Fir && !coefficients.empty() &&
        static_cast<int>(coefficients.size()) != taps)
        return fail(err, "spec: coefficients must be empty or one "
                         "per tap");
    if (kind == WorkloadKind::NocMesh) {
        if (gridRows < 2 || gridRows > 16)
            return fail(err, "spec: grid_rows must be in [2, 16]");
        if (gridCols < 1 || gridCols > 16)
            return fail(err, "spec: grid_cols must be in [1, 16]");
        if (taps < 1 || taps > 16)
            return fail(err, "spec: noc taps must be in [1, 16]");
        if (bits > 8)
            return fail(err, "spec: noc bits must be in [2, 8]");
    }
    if (kind == WorkloadKind::Inverter) {
        if (!(clockPeriodPs > 0.0) || clockPeriodPs > 1e6)
            return fail(err,
                        "spec: clock_period_ps must be in (0, 1e6]");
        if (clockCount < 1 || clockCount > 1 << 20)
            return fail(err, "spec: clock_count must be in [1, 2^20]");
    }
    if (kind == WorkloadKind::Gen && !gen.validate(err))
        return false;
    return true;
}

bool
specFromJson(const std::string &json, NetlistSpec &out,
             std::string *err)
{
    JsonValue doc;
    std::string parse_err;
    if (!parseJson(json, doc, &parse_err))
        return fail(err, "spec: " + parse_err);
    if (!doc.isObject())
        return fail(err, "spec: top level must be an object");

    NetlistSpec s;
    const std::string kind_name =
        stringOr(doc, "kind", workloadKindName(s.kind));
    if (!parseWorkloadKind(kind_name, s.kind))
        return fail(err, "spec: unknown kind '" + kind_name + "'");
    s.name = stringOr(doc, "name", s.name);
    s.taps = static_cast<int>(numberOr(doc, "taps", s.taps));
    s.bits = static_cast<int>(numberOr(doc, "bits", s.bits));
    const std::string mode_name = stringOr(
        doc, "mode", s.mode == DpuMode::Unipolar ? "unipolar"
                                                 : "bipolar");
    if (mode_name == "unipolar")
        s.mode = DpuMode::Unipolar;
    else if (mode_name == "bipolar")
        s.mode = DpuMode::Bipolar;
    else
        return fail(err, "spec: unknown mode '" + mode_name + "'");
    if (const JsonValue *coeffs = doc.find("coefficients");
        coeffs != nullptr) {
        if (!coeffs->isArray())
            return fail(err, "spec: coefficients must be an array");
        for (const JsonValue &c : coeffs->array) {
            if (c.type != JsonValue::Type::Number)
                return fail(err,
                            "spec: coefficients must be numbers");
            s.coefficients.push_back(c.number);
        }
    }
    s.clockPeriodPs =
        numberOr(doc, "clock_period_ps", s.clockPeriodPs);
    s.clockCount =
        static_cast<int>(numberOr(doc, "clock_count", s.clockCount));
    s.waiveUnwired = boolOr(doc, "waive_unwired", s.waiveUnwired);
    s.gridRows =
        static_cast<int>(numberOr(doc, "grid_rows", s.gridRows));
    s.gridCols =
        static_cast<int>(numberOr(doc, "grid_cols", s.gridCols));
    s.nocShareWindows =
        boolOr(doc, "noc_share_windows", s.nocShareWindows);
    if (const JsonValue *g = doc.find("gen"); g != nullptr) {
        if (!gen::designSpecFromJson(*g, s.gen, err))
            return false;
    }

    if (!s.validate(err))
        return false;
    out = std::move(s);
    return true;
}

std::string
specToJson(const NetlistSpec &spec)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("kind", workloadKindName(spec.kind));
    w.kv("name", spec.name);
    w.kv("taps", spec.taps);
    w.kv("bits", spec.bits);
    w.kv("mode",
         spec.mode == DpuMode::Unipolar ? "unipolar" : "bipolar");
    if (!spec.coefficients.empty()) {
        w.key("coefficients").beginArray();
        for (double c : spec.coefficients)
            w.value(c);
        w.endArray();
    }
    w.kv("clock_period_ps", spec.clockPeriodPs);
    w.kv("clock_count", spec.clockCount);
    w.kv("waive_unwired", spec.waiveUnwired);
    w.kv("grid_rows", spec.gridRows);
    w.kv("grid_cols", spec.gridCols);
    w.kv("noc_share_windows", spec.nocShareWindows);
    if (spec.kind == WorkloadKind::Gen) {
        w.key("gen");
        gen::designSpecToJson(spec.gen, w);
    }
    w.endObject();
    return out;
}

bool
RunParams::validate(std::string *err) const
{
    if (epochs < 1 || epochs > 1 << 20)
        return fail(err, "run: epochs must be in [1, 2^20]");
    if (batch < 1 || batch > 4096)
        return fail(err, "run: batch must be in [1, 4096]");
    if (threads < 0 || threads > 256)
        return fail(err, "run: threads must be in [0, 256]");
    if (batch > 1 && backend != Backend::Functional)
        return fail(err, "run: batch > 1 requires the functional "
                         "backend");
    return true;
}

bool
runParamsFromJson(const std::string &json, RunParams &out,
                  std::string *err)
{
    JsonValue doc;
    std::string parse_err;
    if (!parseJson(json, doc, &parse_err))
        return fail(err, "run: " + parse_err);
    if (!doc.isObject())
        return fail(err, "run: top level must be an object");

    RunParams p;
    const std::string backend_name =
        stringOr(doc, "backend", backendName(p.backend));
    if (!parseBackend(backend_name.c_str(), p.backend))
        return fail(err,
                    "run: unknown backend '" + backend_name + "'");
    p.epochs = static_cast<int>(numberOr(doc, "epochs", p.epochs));
    if (const JsonValue *v = doc.find("seed"); v != nullptr) {
        // Canonically a hex string: a JSON number is a double and
        // cannot carry all 64 seed bits.  Plain numbers still parse
        // for hand-written requests with small seeds.
        if (v->type == JsonValue::Type::String) {
            char *end = nullptr;
            const std::uint64_t parsed =
                std::strtoull(v->str.c_str(), &end, 0);
            if (end == v->str.c_str() || *end != '\0')
                return fail(err, "run: seed string '" + v->str +
                                     "' is not a number");
            p.seed = parsed;
        } else if (v->type == JsonValue::Type::Number) {
            p.seed = static_cast<std::uint64_t>(v->number);
        } else {
            return fail(err,
                        "run: seed must be a number or a hex string");
        }
    }
    p.batch = static_cast<int>(numberOr(doc, "batch", p.batch));
    p.threads = static_cast<int>(numberOr(doc, "threads", p.threads));

    if (!p.validate(err))
        return false;
    out = p;
    return true;
}

std::string
runParamsToJson(const RunParams &params)
{
    std::string out;
    JsonWriter w(out);
    w.beginObject();
    w.kv("backend", backendName(params.backend));
    w.kv("epochs", params.epochs);
    {
        // Hex string, not a JSON number: doubles drop the low bits of
        // 64-bit seeds.
        char hex[2 + 16] = {'0', 'x'};
        const auto r = std::to_chars(hex + 2, hex + sizeof hex,
                                     params.seed, 16);
        w.kv("seed", std::string_view(
                         hex, static_cast<std::size_t>(r.ptr - hex)));
    }
    w.kv("batch", params.batch);
    w.kv("threads", params.threads);
    w.endObject();
    return out;
}

std::uint64_t
runParamsKeyHash(const RunParams &params)
{
    std::uint64_t h = kFnvBasis;
    h = fnvU64(h, static_cast<std::uint64_t>(params.epochs));
    return h;
}

std::uint64_t
specHash(const NetlistSpec &spec)
{
    std::uint64_t h = kFnvBasis;
    h = fnvU64(h, static_cast<std::uint64_t>(spec.kind));
    h = fnvStr(h, spec.name);
    h = fnvU64(h, static_cast<std::uint64_t>(spec.taps));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.bits));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.mode));
    h = fnvU64(h, spec.coefficients.size());
    for (double c : spec.coefficients)
        h = fnv1a(h, &c, sizeof(c));
    h = fnv1a(h, &spec.clockPeriodPs, sizeof(spec.clockPeriodPs));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.clockCount));
    h = fnvU64(h, spec.waiveUnwired ? 1 : 0);
    h = fnvU64(h, static_cast<std::uint64_t>(spec.gridRows));
    h = fnvU64(h, static_cast<std::uint64_t>(spec.gridCols));
    h = fnvU64(h, spec.nocShareWindows ? 1 : 0);
    // Folded only for Gen specs so every pre-existing kind keeps its
    // hash (bench baselines embed spec hashes).
    if (spec.kind == WorkloadKind::Gen)
        h = gen::designSpecHash(h, spec.gen);
    return h;
}

} // namespace usfq::api
