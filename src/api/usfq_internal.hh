/**
 * @file
 * Shared internals of the C ABI (usfq.h): the opaque engine struct and
 * the armor every entry point wraps its body in.  Included by the core
 * implementation (api/usfq.cc) and by the service-layer entry points
 * (svc/usfq_cache.cc) -- NOT part of the public ABI surface.
 */

#ifndef USFQ_API_USFQ_INTERNAL_HH
#define USFQ_API_USFQ_INTERNAL_HH

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "api/facade.hh"
#include "api/usfq.h"
#include "obs/stats.hh"
#include "util/logging.hh"

/** The opaque engine: a facade session plus the last-error string. */
struct usfq_engine
{
    explicit usfq_engine(usfq::api::NetlistSpec spec)
        : session(std::move(spec))
    {
    }

    usfq::api::Session session;
    std::string lastError;

    /** Deterministic stats merged across this engine's runs
     *  (usfq_engine_metrics). */
    usfq::obs::StatsRegistry metrics;
};

namespace usfq::api::abi
{

// usfq_status mirrors api::Status value for value.
static_assert(USFQ_OK == static_cast<int>(Status::Ok) &&
              USFQ_ERR_INVALID_ARG == static_cast<int>(Status::InvalidArg) &&
              USFQ_ERR_PARSE == static_cast<int>(Status::ParseError) &&
              USFQ_ERR_LINT == static_cast<int>(Status::LintError) &&
              USFQ_ERR_STA == static_cast<int>(Status::StaError) &&
              USFQ_ERR_RUN == static_cast<int>(Status::RunError) &&
              USFQ_ERR_UNSUPPORTED ==
                  static_cast<int>(Status::Unsupported) &&
              USFQ_ERR_INTERNAL == static_cast<int>(Status::Internal));

inline int32_t
toStatus(Status status)
{
    return static_cast<int32_t>(status);
}

/** Copy a std::string into a malloc'd C string (usfq_string_free). */
inline char *
dupString(const std::string &s)
{
    char *out = static_cast<char *>(std::malloc(s.size() + 1));
    if (out == nullptr)
        return nullptr;
    std::memcpy(out, s.c_str(), s.size() + 1);
    return out;
}

/**
 * Run @p body (returning an api::Status) under the full armor and
 * record any failure message on the engine.
 */
template <typename Fn>
int32_t
guarded(usfq_engine *engine, Fn &&body)
{
    if (engine == nullptr)
        return USFQ_ERR_INVALID_ARG;
    engine->lastError.clear();
    ScopedFatalThrow guard;
    try {
        const Status s = body();
        if (s != Status::Ok && engine->lastError.empty())
            engine->lastError = engine->session.lastError();
        return toStatus(s);
    } catch (const FatalError &e) {
        engine->lastError = e.what();
        return USFQ_ERR_INTERNAL;
    } catch (const std::bad_alloc &) {
        engine->lastError = "out of memory";
        return USFQ_ERR_INTERNAL;
    } catch (const std::exception &e) {
        engine->lastError = e.what();
        return USFQ_ERR_INTERNAL;
    } catch (...) {
        engine->lastError = "unknown exception";
        return USFQ_ERR_INTERNAL;
    }
}

} // namespace usfq::api::abi

#endif // USFQ_API_USFQ_INTERNAL_HH
