#include "api/spec.hh"

#include <bit>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <utility>

#include "util/hash.hh"
#include "util/json.hh"

namespace usfq::api
{

namespace
{

bool
fail(std::string *err, const std::string &message)
{
    if (err != nullptr)
        *err = message;
    return false;
}

/** A document that does not parse as a spec or params: ParseError. */
Status
malformed(std::string *err, const std::string &message)
{
    fail(err, message);
    return Status::ParseError;
}

/** Status names in enum order. */
constexpr const char *kStatusNames[] = {
    "ok",        "invalid_arg", "parse_error", "lint_error",
    "sta_error", "run_error",   "unsupported", "internal",
};

/** Every workload kind with its wire name. */
constexpr std::pair<WorkloadKind, const char *> kKindNames[] = {
    {WorkloadKind::Dpu, "dpu"},
    {WorkloadKind::Pe, "pe"},
    {WorkloadKind::Fir, "fir"},
    {WorkloadKind::Inverter, "inverter"},
    {WorkloadKind::NocMesh, "noc"},
    {WorkloadKind::Gen, "gen"},
};

} // namespace

const char *
statusName(Status status)
{
    const auto i = static_cast<std::size_t>(status);
    return i < std::size(kStatusNames) ? kStatusNames[i] : "?";
}

const char *
workloadKindName(WorkloadKind kind)
{
    for (const auto &[k, name] : kKindNames)
        if (k == kind)
            return name;
    return "?";
}

bool
parseWorkloadKind(const std::string &s, WorkloadKind &out)
{
    for (const auto &[k, name] : kKindNames) {
        if (s == name) {
            out = k;
            return true;
        }
    }
    return false;
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

Status
specFromJson(const std::string &json, NetlistSpec &out,
             std::string *err)
{
    JsonValue doc;
    std::string parse_err;
    if (!parseJson(json, doc, &parse_err))
        return malformed(err, "spec: " + parse_err);
    if (!doc.isObject())
        return malformed(err, "spec: top level must be an object");

    NetlistSpec s;
    std::string kind_name = workloadKindName(s.kind);
    std::string mode_name =
        s.mode == DpuMode::Unipolar ? "unipolar" : "bipolar";
    std::string bad;
    if (!doc.member("kind", kind_name, &bad) ||
        !doc.member("name", s.name, &bad) ||
        !doc.member("taps", s.taps, &bad) ||
        !doc.member("bits", s.bits, &bad) ||
        !doc.member("mode", mode_name, &bad) ||
        !doc.member("clock_period_ps", s.clockPeriodPs, &bad) ||
        !doc.member("clock_count", s.clockCount, &bad) ||
        !doc.member("waive_unwired", s.waiveUnwired, &bad) ||
        !doc.member("grid_rows", s.gridRows, &bad) ||
        !doc.member("grid_cols", s.gridCols, &bad) ||
        !doc.member("noc_share_windows", s.nocShareWindows, &bad))
        return malformed(err, "spec: " + bad);
    if (!parseWorkloadKind(kind_name, s.kind))
        return malformed(err, "spec: unknown kind '" + kind_name + "'");
    if (mode_name == "unipolar")
        s.mode = DpuMode::Unipolar;
    else if (mode_name == "bipolar")
        s.mode = DpuMode::Bipolar;
    else
        return malformed(err, "spec: unknown mode '" + mode_name + "'");
    if (const JsonValue *coeffs = doc.find("coefficients");
        coeffs != nullptr) {
        if (!coeffs->isArray())
            return malformed(err, "spec: coefficients must be an array");
        for (const JsonValue &c : coeffs->array) {
            if (c.type != JsonValue::Type::Number)
                return malformed(err,
                                 "spec: coefficients must be numbers");
            s.coefficients.push_back(c.number);
        }
    }
    if (const JsonValue *g = doc.find("gen"); g != nullptr) {
        if (!gen::designSpecFromJson(*g, s.gen, err))
            return Status::ParseError;
        // A gen object is checked whatever the kind.
        if (!s.gen.validate(err))
            return Status::InvalidArg;
    }

    if (!s.validate(err))
        return Status::InvalidArg;
    out = std::move(s);
    return Status::Ok;
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

Status
runParamsFromJson(const std::string &json, RunParams &out,
                  std::string *err)
{
    JsonValue doc;
    std::string parse_err;
    if (!parseJson(json, doc, &parse_err))
        return malformed(err, "run: " + parse_err);
    if (!doc.isObject())
        return malformed(err, "run: top level must be an object");

    RunParams p;
    std::string backend_name = backendName(p.backend);
    std::string bad;
    // The seed is canonically a hex string: a JSON number is a double
    // and cannot carry all 64 seed bits.  Plain integers still parse
    // for hand-written requests with small seeds.
    const JsonValue *seed = doc.find("seed");
    const bool hexSeed =
        seed != nullptr && seed->type == JsonValue::Type::String;
    if (!doc.member("backend", backend_name, &bad) ||
        !doc.member("epochs", p.epochs, &bad) ||
        (!hexSeed && !doc.member("seed", p.seed, &bad)) ||
        !doc.member("batch", p.batch, &bad) ||
        !doc.member("threads", p.threads, &bad))
        return malformed(err, "run: " + bad);
    if (!parseBackend(backend_name.c_str(), p.backend))
        return malformed(err,
                         "run: unknown backend '" + backend_name + "'");
    if (hexSeed) {
        char *end = nullptr;
        p.seed = std::strtoull(seed->str.c_str(), &end, 0);
        if (end == seed->str.c_str() || *end != '\0')
            return malformed(err, "run: seed string '" + seed->str +
                                      "' is not a number");
    }

    if (!p.validate(err))
        return Status::InvalidArg;
    out = p;
    return Status::Ok;
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
        h = fnvU64(h, std::bit_cast<std::uint64_t>(c));
    h = fnvU64(h, std::bit_cast<std::uint64_t>(spec.clockPeriodPs));
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
