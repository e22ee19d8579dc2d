/**
 * @file
 * Engine facade + C ABI tests (src/api/, docs/service.md): the spec
 * vocabulary round-trips through JSON, the Session pipeline surfaces
 * lint/STA/run failures as Status values, results are bit-identical
 * across batch widths and sweep thread counts, and the whole
 * build -> elaborate -> STA -> run flow is drivable purely through
 * the exception-free C ABI (usfq.h) -- including its error paths,
 * which must come back as error codes, never as an abort.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/facade.hh"
#include "api/spec.hh"
#include "api/usfq.h"
#include "core/encoding.hh"
#include "util/logging.hh"

namespace usfq
{
namespace
{

api::NetlistSpec
dpuSpec()
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Dpu;
    spec.name = "dpu";
    spec.taps = 8;
    spec.bits = 5;
    spec.mode = DpuMode::Bipolar;
    return spec;
}

api::RunParams
functionalParams(int epochs = 12)
{
    api::RunParams params;
    params.backend = Backend::Functional;
    params.epochs = epochs;
    params.seed = 0xabcdULL;
    return params;
}

// --- spec / params vocabulary --------------------------------------------

TEST(ApiSpec, WorkloadKindNamesRoundTrip)
{
    for (const api::WorkloadKind kind :
         {api::WorkloadKind::Dpu, api::WorkloadKind::Pe,
          api::WorkloadKind::Fir, api::WorkloadKind::Inverter,
          api::WorkloadKind::Gen}) {
        api::WorkloadKind parsed;
        ASSERT_TRUE(
            api::parseWorkloadKind(api::workloadKindName(kind),
                                   parsed));
        EXPECT_EQ(parsed, kind);
    }
    api::WorkloadKind parsed;
    EXPECT_FALSE(api::parseWorkloadKind("nonsense", parsed));
}

TEST(ApiSpec, SpecJsonRoundTrip)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Fir;
    spec.name = "lowpass";
    spec.taps = 3;
    spec.bits = 7;
    spec.mode = DpuMode::Unipolar;
    spec.coefficients = {0.25, 0.5, 0.25};
    spec.waiveUnwired = false;

    api::NetlistSpec back;
    std::string err;
    ASSERT_EQ(api::specFromJson(api::specToJson(spec), back, &err),
              api::Status::Ok)
        << err;
    EXPECT_EQ(back, spec);
}

TEST(ApiSpec, RunParamsJsonRoundTrip)
{
    api::RunParams params;
    params.backend = Backend::PulseLevel;
    params.epochs = 7;
    params.seed = 0x123456789abcdef0ULL;

    api::RunParams back;
    std::string err;
    ASSERT_EQ(api::runParamsFromJson(api::runParamsToJson(params),
                                     back, &err),
              api::Status::Ok)
        << err;
    EXPECT_EQ(back, params);
}

TEST(ApiSpec, ValidateRejectsOutOfRange)
{
    api::NetlistSpec spec = dpuSpec();
    spec.taps = 0;
    std::string err;
    EXPECT_FALSE(spec.validate(&err));
    EXPECT_NE(err.find("taps"), std::string::npos);

    api::RunParams params;
    params.batch = 8;
    params.backend = Backend::PulseLevel;
    EXPECT_FALSE(params.validate(&err));
    EXPECT_NE(err.find("batch"), std::string::npos);
}

TEST(ApiSpec, SpecHashSeparatesParameters)
{
    const api::NetlistSpec a = dpuSpec();
    api::NetlistSpec b = a;
    EXPECT_EQ(api::specHash(a), api::specHash(b));
    b.taps = a.taps + 1;
    EXPECT_NE(api::specHash(a), api::specHash(b));
}

TEST(ApiSpec, GenSpecJsonRoundTrip)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Gen;
    spec.name = "gen";
    spec.gen.lanes = 16;
    spec.gen.bits = 6;
    spec.gen.clockPeriodPs = 20;
    spec.gen.tree = gen::TreeKind::Merger;
    spec.gen.shape = gen::LaneShape::Random;
    spec.gen.balance = gen::BalanceStyle::Register;
    spec.gen.shapeSeed = 42;

    api::NetlistSpec back;
    std::string err;
    ASSERT_EQ(api::specFromJson(api::specToJson(spec), back, &err),
              api::Status::Ok)
        << err;
    EXPECT_EQ(back, spec);

    // The generator parameters are part of the cache identity.
    api::NetlistSpec moved = spec;
    moved.gen.shapeSeed = 43;
    EXPECT_NE(api::specHash(spec), api::specHash(moved));
}

// --- session pipeline ----------------------------------------------------

TEST(ApiSession, DpuPipelineRuns)
{
    api::Session session(dpuSpec());
    ASSERT_EQ(session.build(), api::Status::Ok);
    ASSERT_EQ(session.elaborate(), api::Status::Ok);
    ASSERT_EQ(session.analyzeTiming(), api::Status::Ok)
        << session.lastError();
    ASSERT_NE(session.staReport(), nullptr);

    api::RunResult result;
    ASSERT_EQ(session.run(functionalParams(), result), api::Status::Ok)
        << session.lastError();
    EXPECT_EQ(result.counts.size(), 12u);
    EXPECT_GT(result.totalJJ, 0);
    EXPECT_FALSE(result.stats.empty());
}

TEST(ApiSession, RunIsDeterministic)
{
    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams params = functionalParams();
    const api::RunResult a = api::runWorkload(spec, params);
    const api::RunResult b = api::runWorkload(spec, params);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(api::resultToJson(spec, params, a),
              api::resultToJson(spec, params, b));
}

TEST(ApiSession, ResultBitIdenticalAcrossBatchAndThreads)
{
    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams base = functionalParams(16);
    const api::RunResult reference = api::runWorkload(spec, base);
    const std::string referenceJson =
        api::resultToJson(spec, base, reference);

    for (const int batch : {1, 3, 8}) {
        for (const int threads : {1, 4}) {
            api::RunParams params = base;
            params.batch = batch;
            params.threads = threads;
            const api::RunResult got = api::runWorkload(spec, params);
            EXPECT_EQ(got.counts, reference.counts)
                << "batch " << batch << " threads " << threads;
            EXPECT_EQ(got.checksum, reference.checksum);
            // The wire format deliberately omits batch/threads, so the
            // document is the same bytes too (cache transparency).
            EXPECT_EQ(api::resultToJson(spec, params, got),
                      referenceJson);
        }
    }
}

TEST(ApiSession, PulseAndFunctionalEnginesAgree)
{
    api::NetlistSpec spec = dpuSpec();
    spec.taps = 4;
    spec.bits = 4;
    api::RunParams params = functionalParams(4);
    const api::RunResult functional = api::runWorkload(spec, params);
    params.backend = Backend::PulseLevel;
    const api::RunResult pulse = api::runWorkload(spec, params);
    EXPECT_EQ(functional.counts, pulse.counts);
    EXPECT_EQ(functional.totalJJ, pulse.totalJJ);
}

TEST(ApiSession, UnwaivedLintSurfacesAsLintError)
{
    api::NetlistSpec spec = dpuSpec();
    spec.waiveUnwired = false;
    api::Session session(spec);
    EXPECT_EQ(session.elaborate(), api::Status::LintError);
    EXPECT_FALSE(session.findings().empty());
    EXPECT_FALSE(session.lastError().empty());
}

TEST(ApiSession, OverclockedInverterSurfacesAsStaError)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Inverter;
    spec.name = "inv";
    spec.clockPeriodPs = 5.0; // below the 9 ps inverter recovery
    spec.clockCount = 16;
    api::Session session(spec);
    ASSERT_EQ(session.elaborate(), api::Status::Ok)
        << session.lastError();
    EXPECT_EQ(session.analyzeTiming(), api::Status::StaError);
    ASSERT_NE(session.staReport(), nullptr);
    EXPECT_FALSE(session.lastError().empty());
}

TEST(ApiSession, GenWorkloadRunsOnBothEngines)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Gen;
    spec.name = "gen";
    spec.gen.lanes = 8;
    spec.gen.bits = 4;
    spec.gen.clockPeriodPs = 20;
    spec.gen.tree = gen::TreeKind::Balancer;
    spec.gen.shape = gen::LaneShape::Skewed;

    api::Session session(spec);
    ASSERT_EQ(session.build(), api::Status::Ok)
        << session.lastError();
    ASSERT_EQ(session.elaborate(), api::Status::Ok)
        << session.lastError();
    // The balancing pass already aligned the lanes, so the checked
    // STA gate (with the by-design waivers) must hold.
    ASSERT_EQ(session.analyzeTiming(), api::Status::Ok)
        << session.lastError();

    api::RunParams params = functionalParams(6);
    const api::RunResult functional = api::runWorkload(spec, params);
    params.backend = Backend::PulseLevel;
    const api::RunResult pulse = api::runWorkload(spec, params);
    EXPECT_EQ(functional.counts, pulse.counts);
    EXPECT_EQ(functional.checksum, pulse.checksum);
    EXPECT_EQ(functional.totalJJ, pulse.totalJJ);
}

TEST(ApiSession, GenInfeasibleSpecIsInvalidArg)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Gen;
    spec.name = "gen";
    spec.gen.lanes = 4;
    spec.gen.bits = 4;
    spec.gen.tree = gen::TreeKind::Balancer;
    spec.gen.clockPeriodPs = 10; // below the 12 ps balancer dead time

    api::Session session(spec);
    EXPECT_EQ(session.build(), api::Status::InvalidArg);
    EXPECT_NE(session.lastError().find("balancing"),
              std::string::npos)
        << session.lastError();
}

TEST(ApiSession, ContentHashSeparatesTopologies)
{
    api::Session a(dpuSpec());
    api::Session b(dpuSpec());
    std::uint64_t ha = 0;
    std::uint64_t hb = 0;
    ASSERT_EQ(a.contentHash(ha), api::Status::Ok);
    ASSERT_EQ(b.contentHash(hb), api::Status::Ok);
    EXPECT_EQ(ha, hb);

    api::NetlistSpec wider = dpuSpec();
    wider.taps = 9;
    api::Session c(wider);
    std::uint64_t hc = 0;
    ASSERT_EQ(c.contentHash(hc), api::Status::Ok);
    EXPECT_NE(hc, ha);
}

// --- the C ABI -----------------------------------------------------------

TEST(ApiAbi, VersionAndStatusNames)
{
    EXPECT_EQ(usfq_abi_version(), USFQ_ABI_VERSION);
    EXPECT_STREQ(usfq_status_name(USFQ_OK), "ok");
    EXPECT_STREQ(usfq_status_name(USFQ_ERR_LINT), "lint_error");
    EXPECT_STREQ(usfq_status_name(12345), "?");
}

TEST(ApiAbi, RoundTripMatchesFacade)
{
    const api::NetlistSpec spec = dpuSpec();
    const api::RunParams params = functionalParams();

    usfq_engine *engine = nullptr;
    ASSERT_EQ(usfq_engine_create(api::specToJson(spec).c_str(),
                                 &engine),
              USFQ_OK);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(usfq_engine_elaborate(engine), USFQ_OK)
        << usfq_engine_last_error(engine);
    EXPECT_EQ(usfq_engine_analyze_timing(engine), USFQ_OK)
        << usfq_engine_last_error(engine);

    uint64_t hash = 0;
    EXPECT_EQ(usfq_engine_hash(engine, &hash), USFQ_OK);
    EXPECT_NE(hash, 0u);

    char *json = nullptr;
    ASSERT_EQ(usfq_engine_run(engine,
                              api::runParamsToJson(params).c_str(),
                              &json),
              USFQ_OK)
        << usfq_engine_last_error(engine);
    ASSERT_NE(json, nullptr);

    // The ABI's result document is the same bytes the facade emits.
    const api::RunResult direct = api::runWorkload(spec, params);
    EXPECT_EQ(std::string(json),
              api::resultToJson(spec, params, direct));
    usfq_string_free(json);
    usfq_engine_destroy(engine);
}

TEST(ApiAbi, LintFailureIsAnErrorCodeNotAnAbort)
{
    api::NetlistSpec spec = dpuSpec();
    spec.waiveUnwired = false;

    usfq_engine *engine = nullptr;
    ASSERT_EQ(usfq_engine_create(api::specToJson(spec).c_str(),
                                 &engine),
              USFQ_OK);
    EXPECT_EQ(usfq_engine_elaborate(engine), USFQ_ERR_LINT);
    EXPECT_STRNE(usfq_engine_last_error(engine), "");

    char *findings = nullptr;
    ASSERT_EQ(usfq_engine_findings(engine, &findings), USFQ_OK);
    ASSERT_NE(findings, nullptr);
    EXPECT_NE(std::string(findings).find("dangling-input"),
              std::string::npos);
    usfq_string_free(findings);
    usfq_engine_destroy(engine);
}

TEST(ApiAbi, StaFailureIsAnErrorCodeNotAnAbort)
{
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Inverter;
    spec.name = "inv";
    spec.clockPeriodPs = 5.0;
    spec.clockCount = 16;

    usfq_engine *engine = nullptr;
    ASSERT_EQ(usfq_engine_create(api::specToJson(spec).c_str(),
                                 &engine),
              USFQ_OK);
    ASSERT_EQ(usfq_engine_elaborate(engine), USFQ_OK)
        << usfq_engine_last_error(engine);
    EXPECT_EQ(usfq_engine_analyze_timing(engine), USFQ_ERR_STA);
    EXPECT_STRNE(usfq_engine_last_error(engine), "");
    usfq_engine_destroy(engine);
}

TEST(ApiAbi, MalformedJsonIsParseError)
{
    usfq_engine *engine = nullptr;
    EXPECT_EQ(usfq_engine_create("this is not json", &engine),
              USFQ_ERR_PARSE);
    EXPECT_EQ(engine, nullptr);
}

TEST(ApiAbi, OutOfRangeSpecIsInvalidArg)
{
    usfq_engine *engine = nullptr;
    EXPECT_EQ(usfq_engine_create(
                  R"({"kind": "dpu", "name": "d", "taps": 0})",
                  &engine),
              USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(engine, nullptr);
}

/**
 * One row of the C ABI status contract (usfq.h): a spec document goes
 * through usfq_engine_create and usfq_broker_run, a params document
 * through usfq_engine_run, usfq_engine_run_cached and usfq_broker_run.
 * Range and consistency failures are INVALID_ARG, documents that do
 * not parse (syntax, member types, unknown names) PARSE, and every
 * entry point leaves the same last-error text.
 */
struct StatusRow
{
    bool isSpec;
    const char *json;
    int32_t status;
    const char *message;
};

const StatusRow kStatusRows[] = {
    {true, R"({"kind": "dpu", "taps": 0})", USFQ_ERR_INVALID_ARG,
     "spec: taps must be in [1, 1024]"},
    {true, R"({"kind": "noc", "grid_rows": 1})", USFQ_ERR_INVALID_ARG,
     "spec: grid_rows must be in [2, 16]"},
    {true, R"({"kind": "noc", "taps": 20})", USFQ_ERR_INVALID_ARG,
     "spec: noc taps must be in [1, 16]"},
    {true, R"({"kind": "noc", "bits": 9})", USFQ_ERR_INVALID_ARG,
     "spec: noc bits must be in [2, 8]"},
    {true, R"({"kind": "gen", "gen": {"lanes": 3}})",
     USFQ_ERR_INVALID_ARG, "gen: lanes must be a power of two in [2, 64]"},
    {true, R"({"kind": "gen", "gen": {"bits": 12}})",
     USFQ_ERR_INVALID_ARG, "gen: bits must be in [1, 8]"},
    {true, R"({"kind": "fir", "taps": 3, "coefficients": [0.5, 0.5]})",
     USFQ_ERR_INVALID_ARG,
     "spec: coefficients must be empty or one per tap"},
    // A gen object is range-checked whatever the kind, before the spec.
    {true, R"({"kind": "dpu", "taps": 0, "gen": {"lanes": 3}})",
     USFQ_ERR_INVALID_ARG, "gen: lanes must be a power of two in [2, 64]"},
    {false, R"({"epochs": 0})", USFQ_ERR_INVALID_ARG,
     "run: epochs must be in [1, 2^20]"},
    {false, R"({"backend": "pulse", "batch": 8})", USFQ_ERR_INVALID_ARG,
     "run: batch > 1 requires the functional backend"},
    {true, "{not json", USFQ_ERR_PARSE,
     "spec: expected string at offset 1"},
    {true, R"({"kind": "quantum"})", USFQ_ERR_PARSE,
     "spec: unknown kind 'quantum'"},
    {true, R"({"kind": "dpu", "mode": "ternary"})", USFQ_ERR_PARSE,
     "spec: unknown mode 'ternary'"},
    {true, R"({"kind": "gen", "gen": {"tree": "pyramid"}})",
     USFQ_ERR_PARSE, "gen: unknown tree 'pyramid'"},
    {true, R"({"kind": "fir", "coefficients": 0.5})", USFQ_ERR_PARSE,
     "spec: coefficients must be an array"},
    {false, "{not json", USFQ_ERR_PARSE,
     "run: expected string at offset 1"},
    {false, R"({"backend": "quantum"})", USFQ_ERR_PARSE,
     "run: unknown backend 'quantum'"},
    {false, R"({"seed": "banana"})", USFQ_ERR_PARSE,
     "run: seed string 'banana' is not a number"},
    // A present member of another JSON type, or an integer member that
    // is not integral or does not fit its C++ type, does not parse.
    {true, R"({"kind": "dpu", "taps": "4"})", USFQ_ERR_PARSE,
     "spec: 'taps' must be a 32-bit integer"},
    {true, R"({"kind": 5})", USFQ_ERR_PARSE,
     "spec: 'kind' must be a string"},
    {true, R"({"taps": 4.7})", USFQ_ERR_PARSE,
     "spec: 'taps' must be a 32-bit integer"},
    {true, R"({"kind": "dpu", "taps": 1e300})", USFQ_ERR_PARSE,
     "spec: 'taps' must be a 32-bit integer"},
    {true, R"({"waive_unwired": "no"})", USFQ_ERR_PARSE,
     "spec: 'waive_unwired' must be true or false"},
    {true, R"({"kind": "gen", "gen": {"lanes": "8"}})", USFQ_ERR_PARSE,
     "gen: 'lanes' must be a 32-bit integer"},
    {true, R"({"kind": "gen", "gen": {"shape_seed": 1e30}})",
     USFQ_ERR_PARSE, "gen: 'shape_seed' must be an unsigned 64-bit integer"},
    {false, R"({"epochs": "3"})", USFQ_ERR_PARSE,
     "run: 'epochs' must be a 32-bit integer"},
    {false, R"({"epochs": 2.9})", USFQ_ERR_PARSE,
     "run: 'epochs' must be a 32-bit integer"},
    {false, R"({"backend": 7})", USFQ_ERR_PARSE,
     "run: 'backend' must be a string"},
    {false, R"({"seed": -1})", USFQ_ERR_PARSE,
     "run: 'seed' must be an unsigned 64-bit integer"},
};

TEST(ApiAbi, StatusContractHoldsOnEveryEntryPoint)
{
    const char *dpu = R"({"kind": "dpu", "taps": 4})";
    usfq_broker *broker = nullptr;
    ASSERT_EQ(usfq_broker_create(1, 0, 0, &broker), USFQ_OK);
    usfq_cache *cache = nullptr;
    ASSERT_EQ(usfq_cache_create(4, &cache), USFQ_OK);
    for (const StatusRow &row : kStatusRows) {
        SCOPED_TRACE(row.json);
        char *json = nullptr;
        usfq_engine *engine = nullptr;
        if (row.isSpec) {
            EXPECT_EQ(usfq_engine_create(row.json, &engine), row.status)
                << "usfq_engine_create";
            EXPECT_EQ(engine, nullptr);
            EXPECT_EQ(usfq_broker_run(broker, row.json, nullptr, nullptr,
                                      nullptr, &json),
                      row.status)
                << "usfq_broker_run";
        } else {
            ASSERT_EQ(usfq_engine_create(dpu, &engine), USFQ_OK);
            EXPECT_EQ(usfq_engine_run(engine, row.json, &json),
                      row.status)
                << "usfq_engine_run";
            EXPECT_STREQ(usfq_engine_last_error(engine), row.message);
            EXPECT_EQ(usfq_engine_run_cached(engine, cache, row.json,
                                             nullptr, &json),
                      row.status)
                << "usfq_engine_run_cached";
            EXPECT_STREQ(usfq_engine_last_error(engine), row.message);
            usfq_engine_destroy(engine);
            EXPECT_EQ(usfq_broker_run(broker, dpu, row.json, nullptr,
                                      nullptr, &json),
                      row.status)
                << "usfq_broker_run";
        }
        EXPECT_STREQ(usfq_broker_last_error(broker), row.message);
        EXPECT_EQ(json, nullptr);
    }
    usfq_cache_destroy(cache);
    usfq_broker_destroy(broker);
}

TEST(ApiAbi, StatusNamesAreTheFacadeNames)
{
    for (int32_t i = 0; i <= 7; ++i)
        EXPECT_STREQ(usfq_status_name(i),
                     api::statusName(static_cast<api::Status>(i)));
    EXPECT_STREQ(usfq_status_name(-1), "?");
    EXPECT_STREQ(usfq_status_name(8), "?");
}

TEST(ApiAbi, NullArgumentsAreInvalidArg)
{
    EXPECT_EQ(usfq_engine_create(nullptr, nullptr),
              USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(usfq_engine_elaborate(nullptr), USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(usfq_engine_hash(nullptr, nullptr),
              USFQ_ERR_INVALID_ARG);
    EXPECT_EQ(usfq_engine_run(nullptr, nullptr, nullptr),
              USFQ_ERR_INVALID_ARG);
    usfq_engine_destroy(nullptr); // must be a safe no-op
    usfq_string_free(nullptr);    // likewise
}

TEST(ApiAbi, UnsupportedPulseVariantIsUnsupported)
{
    // The pulse-level FIR harness is unipolar-only; asking for a
    // bipolar FIR on the pulse engine must come back Unsupported.
    api::NetlistSpec spec;
    spec.kind = api::WorkloadKind::Fir;
    spec.name = "fir";
    spec.taps = 3;
    spec.bits = 5;
    spec.mode = DpuMode::Bipolar;

    usfq_engine *engine = nullptr;
    ASSERT_EQ(usfq_engine_create(api::specToJson(spec).c_str(),
                                 &engine),
              USFQ_OK);
    api::RunParams params = functionalParams(4);
    params.backend = Backend::PulseLevel;
    char *json = nullptr;
    EXPECT_EQ(usfq_engine_run(engine,
                              api::runParamsToJson(params).c_str(),
                              &json),
              USFQ_ERR_UNSUPPORTED);
    EXPECT_EQ(json, nullptr);
    usfq_engine_destroy(engine);
}

} // namespace
} // namespace usfq
