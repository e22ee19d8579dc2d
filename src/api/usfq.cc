/**
 * @file
 * Implementation of the C ABI (usfq.h) on top of the engine facade
 * (api/facade.hh).  Every entry point is wrapped in the same armor:
 * fatal-throw mode for the duration of the call plus a catch-all, so
 * no engine condition -- fatal(), bad_alloc, a logic bug -- ever
 * crosses the C boundary as anything but a status code.
 */

#include "api/usfq.h"

#include <cstdlib>
#include <string>

#include "api/facade.hh"
#include "api/spec.hh"
#include "api/usfq_internal.hh"
#include "obs/artifact.hh"
#include "util/logging.hh"

using usfq::ScopedFatalThrow;
namespace api = usfq::api;
using usfq::api::abi::dupString;
using usfq::api::abi::guarded;

extern "C" {

int32_t
usfq_abi_version(void)
{
    return USFQ_ABI_VERSION;
}

const char *
usfq_status_name(int32_t status)
{
    switch (status) {
    case USFQ_OK:
        return "ok";
    case USFQ_ERR_INVALID_ARG:
        return "invalid_arg";
    case USFQ_ERR_PARSE:
        return "parse_error";
    case USFQ_ERR_LINT:
        return "lint_error";
    case USFQ_ERR_STA:
        return "sta_error";
    case USFQ_ERR_RUN:
        return "run_error";
    case USFQ_ERR_UNSUPPORTED:
        return "unsupported";
    case USFQ_ERR_INTERNAL:
        return "internal";
    }
    return "?";
}

int32_t
usfq_engine_create(const char *spec_json, usfq_engine **out)
{
    if (spec_json == nullptr || out == nullptr)
        return USFQ_ERR_INVALID_ARG;
    ScopedFatalThrow guard;
    try {
        api::NetlistSpec spec;
        std::string err;
        if (!api::specFromJson(spec_json, spec, &err)) {
            // Distinguish "did not parse" from "parsed but invalid":
            // validation messages come from NetlistSpec::validate.
            return err.rfind("spec: name", 0) == 0 ||
                           err.rfind("spec: bits", 0) == 0 ||
                           err.rfind("spec: taps", 0) == 0 ||
                           err.rfind("spec: coefficients must be "
                                     "empty",
                                     0) == 0 ||
                           err.rfind("spec: clock_", 0) == 0
                       ? USFQ_ERR_INVALID_ARG
                       : USFQ_ERR_PARSE;
        }
        *out = new usfq_engine(std::move(spec));
        return USFQ_OK;
    } catch (...) {
        return USFQ_ERR_INTERNAL;
    }
}

void
usfq_engine_destroy(usfq_engine *engine)
{
    delete engine;
}

const char *
usfq_engine_last_error(const usfq_engine *engine)
{
    if (engine == nullptr)
        return "";
    if (!engine->lastError.empty())
        return engine->lastError.c_str();
    return engine->session.lastError().c_str();
}

int32_t
usfq_engine_elaborate(usfq_engine *engine)
{
    return guarded(engine,
                   [&] { return engine->session.elaborate(); });
}

int32_t
usfq_engine_analyze_timing(usfq_engine *engine)
{
    return guarded(engine,
                   [&] { return engine->session.analyzeTiming(); });
}

int32_t
usfq_engine_findings(usfq_engine *engine, char **out_json)
{
    if (out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    return guarded(engine, [&] {
        const std::string json =
            api::findingsToJson(engine->session.findings());
        char *copy = dupString(json);
        if (copy == nullptr) {
            engine->lastError = "out of memory";
            return api::Status::Internal;
        }
        *out_json = copy;
        return api::Status::Ok;
    });
}

int32_t
usfq_engine_hash(usfq_engine *engine, uint64_t *out_hash)
{
    if (out_hash == nullptr)
        return USFQ_ERR_INVALID_ARG;
    return guarded(engine, [&] {
        std::uint64_t h = 0;
        const api::Status s = engine->session.contentHash(h);
        if (s == api::Status::Ok)
            *out_hash = h;
        return s;
    });
}

int32_t
usfq_engine_run(usfq_engine *engine, const char *params_json,
                char **out_json)
{
    if (params_json == nullptr || out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    return guarded(engine, [&] {
        api::RunParams params;
        std::string err;
        if (!api::runParamsFromJson(params_json, params, &err)) {
            engine->lastError = err;
            return err.rfind("run: epochs", 0) == 0 ||
                           err.rfind("run: batch", 0) == 0 ||
                           err.rfind("run: threads", 0) == 0
                       ? api::Status::InvalidArg
                       : api::Status::ParseError;
        }
        api::RunResult result;
        const api::Status s = engine->session.run(params, result);
        if (s != api::Status::Ok)
            return s;
        char *copy = dupString(
            api::resultToJson(engine->session.spec(), params, result));
        if (copy == nullptr) {
            engine->lastError = "out of memory";
            return api::Status::Internal;
        }
        engine->metrics.mergeFrom(result.stats);
        *out_json = copy;
        return api::Status::Ok;
    });
}

int32_t
usfq_engine_metrics(usfq_engine *engine, char **out_json)
{
    if (out_json == nullptr)
        return USFQ_ERR_INVALID_ARG;
    return guarded(engine, [&] {
        char *copy = dupString(usfq::obs::statsToJson(engine->metrics));
        if (copy == nullptr) {
            engine->lastError = "out of memory";
            return api::Status::Internal;
        }
        *out_json = copy;
        return api::Status::Ok;
    });
}

void
usfq_string_free(char *str)
{
    std::free(str);
}

} // extern "C"
