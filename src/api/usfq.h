/**
 * @file
 * Stable C ABI of the U-SFQ simulation engine (docs/service.md).
 *
 * Design rules:
 *
 *  - Flat C: opaque handles, integer error codes, JSON strings in and
 *    out.  No C++ type ever crosses this boundary, so any FFI (ctypes,
 *    JNI, dlopen) can drive the engine.
 *  - Exception-free and abort-free: every entry point runs the engine
 *    in fatal-throw mode (util/logging.hh) and converts failures --
 *    malformed specs, lint errors, timing violations, engine fatals --
 *    into a usfq_status plus a retrievable message.  No input can
 *    bring the host process down.
 *  - Strings returned through `char **` out-parameters are owned by
 *    the caller and must be released with usfq_string_free().
 *  - Thread safety: an engine is single-threaded -- never call into
 *    one usfq_engine from two threads at once (it builds its netlist
 *    lazily and records its last error and metrics without a lock).
 *    Distinct engines may run on distinct threads concurrently.  A
 *    usfq_cache and a usfq_broker are thread-safe: any number of
 *    threads may share one (each thread bringing its own engines to a
 *    shared cache).  The fatal-throw mode is per thread, so concurrent
 *    calls never disarm each other.  Creating and destroying a handle
 *    is not concurrent with its use.
 *
 * Typical round trip (api_test.cpp drives exactly this):
 *
 *     usfq_engine *eng = NULL;
 *     usfq_engine_create("{\"kind\": \"dpu\", \"taps\": 8}", &eng);
 *     usfq_engine_elaborate(eng);            // lint as status, not abort
 *     usfq_engine_analyze_timing(eng);       // STA as status
 *     char *json = NULL;
 *     usfq_engine_run(eng, "{\"backend\": \"functional\"}", &json);
 *     ...                                     // artifact-schema JSON
 *     usfq_string_free(json);
 *     usfq_engine_destroy(eng);
 */

#ifndef USFQ_API_USFQ_H
#define USFQ_API_USFQ_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** ABI version; bumped on any breaking change to this header. */
#define USFQ_ABI_VERSION 1

/** Result code of every entry point (mirrors api::Status). */
typedef enum usfq_status {
    USFQ_OK = 0,
    USFQ_ERR_INVALID_ARG = 1,  /* spec/params out of range */
    USFQ_ERR_PARSE = 2,        /* spec/params did not parse */
    USFQ_ERR_LINT = 3,         /* unwaived structural findings */
    USFQ_ERR_STA = 4,          /* unwaived timing findings */
    USFQ_ERR_RUN = 5,          /* evaluation failed */
    USFQ_ERR_UNSUPPORTED = 6,  /* combo not available */
    USFQ_ERR_INTERNAL = 7      /* unexpected failure (a bug) */
} usfq_status;

/** One engine instance: a session over one netlist spec.  Single-
 *  threaded: use one engine per thread (see the file comment). */
typedef struct usfq_engine usfq_engine;

/** ABI version of the linked library (compare with USFQ_ABI_VERSION). */
int32_t usfq_abi_version(void);

/** Stable lower-case name of a status code (never NULL). */
const char *usfq_status_name(int32_t status);

/**
 * Create an engine from a netlist-spec JSON object (api/spec.hh
 * vocabulary: kind/name/taps/bits/mode/coefficients/clock_period_ps/
 * clock_count/waive_unwired/grid_rows/grid_cols/noc_share_windows/gen;
 * all fields optional).  On success stores the handle in @p out.  On
 * failure @p out is untouched and the returned status tells why:
 * USFQ_ERR_PARSE when the document does not parse (JSON syntax, a
 * member of the wrong type, an unknown name), USFQ_ERR_INVALID_ARG
 * when it parses but fails a range or consistency check.
 */
int32_t usfq_engine_create(const char *spec_json, usfq_engine **out);

/** Destroy an engine and everything it owns.  NULL is a no-op. */
void usfq_engine_destroy(usfq_engine *engine);

/**
 * Message describing the engine's last non-OK status (empty string
 * when none).  Owned by the engine; valid until the next call on it.
 */
const char *usfq_engine_last_error(const usfq_engine *engine);

/**
 * Elaborate the spec's netlist: structural lint + freeze.  Unwaived
 * findings return USFQ_ERR_LINT (the process never aborts); the full
 * finding list is available via usfq_engine_findings either way.
 */
int32_t usfq_engine_elaborate(usfq_engine *engine);

/**
 * Run static timing analysis.  Unwaived timing findings (e.g. an
 * inverter probe clocked past the 111 GHz recovery ceiling) return
 * USFQ_ERR_STA; the findings stay retrievable.
 */
int32_t usfq_engine_analyze_timing(usfq_engine *engine);

/**
 * Findings of the last elaborate/analyze_timing call as a JSON object
 * ({"errors": N, "findings": [...]}).  Caller frees @p out_json with
 * usfq_string_free.
 */
int32_t usfq_engine_findings(usfq_engine *engine, char **out_json);

/**
 * Deterministic structural hash of the elaborated netlist -- the
 * content address the result cache (src/svc/cache.hh) keys on.
 */
int32_t usfq_engine_hash(usfq_engine *engine, uint64_t *out_hash);

/**
 * Evaluate the spec's workload with run-params JSON (backend/epochs/
 * seed/batch/threads; all optional) and return the result in the
 * artifact wire format (docs/observability.md schema 2).  The JSON is
 * byte-deterministic in (spec, params result-affecting fields), which
 * is what the result cache verifies hits against.  Caller frees
 * @p out_json with usfq_string_free.  A params document that does not
 * parse returns USFQ_ERR_PARSE; one that fails a range or consistency
 * check (epochs, batch, threads, batch > 1 off the functional backend)
 * returns USFQ_ERR_INVALID_ARG.
 */
int32_t usfq_engine_run(usfq_engine *engine, const char *params_json,
                        char **out_json);

/**
 * Deterministic stats accumulated by every successful run on this
 * engine (usfq_engine_run and usfq_engine_run_cached misses; cache
 * hits reuse an earlier run and add nothing), as a JSON object
 * {"counters": ..., "gauges": ..., "histograms": ...} -- the same
 * shape as an artifact's "stats" section.  Caller frees @p out_json
 * with usfq_string_free.
 */
int32_t usfq_engine_metrics(usfq_engine *engine, char **out_json);

/**
 * Shared result cache (src/svc/cache.hh): a bounded LRU keyed on the
 * content address of a run -- structural hash of the elaborated
 * netlist, spec hash, backend, seed, result-affecting params.  One
 * cache can serve many engines, on any number of threads (the cache
 * is thread-safe; each engine stays on one thread).  These entry
 * points live in the
 * service library: link usfq_svc (not just usfq_api) to use them.
 */
typedef struct usfq_cache usfq_cache;

/**
 * Create a result cache holding up to @p capacity entries (least
 * recently used beyond that is evicted).  Zero capacity or NULL @p out
 * is USFQ_ERR_INVALID_ARG.
 */
int32_t usfq_cache_create(uint64_t capacity, usfq_cache **out);

/** Destroy a cache and every stored result.  NULL is a no-op. */
void usfq_cache_destroy(usfq_cache *cache);

/**
 * Accounting of a cache as a JSON object: {"capacity": C, "size": S,
 * "hits": H, "misses": M, "insertions": I, "evictions": E,
 * "hit_rate": R}.  Caller frees @p out_json with usfq_string_free.
 */
int32_t usfq_cache_stats(const usfq_cache *cache, char **out_json);

/**
 * usfq_engine_run through the cache: elaborates if needed, computes
 * the content address, and returns the stored document on a hit
 * (*out_hit = 1) or evaluates, stores, and returns the fresh document
 * on a miss (*out_hit = 0).  The deterministic wire format makes a
 * hit byte-identical to recomputation -- svc_test verifies this
 * through the ABI.  @p out_hit may be NULL.  Caller frees @p out_json
 * with usfq_string_free.  Params errors are USFQ_ERR_PARSE or
 * USFQ_ERR_INVALID_ARG exactly as for usfq_engine_run.
 */
int32_t usfq_engine_run_cached(usfq_engine *engine, usfq_cache *cache,
                               const char *params_json,
                               int32_t *out_hit, char **out_json);

/**
 * The request broker (src/svc/broker.hh) behind a flat handle: a
 * bounded queue feeding a worker pool with backend auto-selection and
 * a private result cache.  Thread-safe: any number of threads may call
 * usfq_broker_run on one broker.  Lives in the service library like
 * usfq_cache: link usfq_svc to use it.
 */
typedef struct usfq_broker usfq_broker;

/**
 * Create a broker with @p workers threads, a pending queue bounded at
 * @p queue_capacity and a result cache of @p cache_capacity entries.
 * Zero or negative values select the built-in defaults.
 */
int32_t usfq_broker_create(int32_t workers, uint64_t queue_capacity,
                           uint64_t cache_capacity, usfq_broker **out);

/** Shut the broker down (joining its workers) and destroy it. */
void usfq_broker_destroy(usfq_broker *broker);

/**
 * Message describing the calling thread's last non-OK status on this
 * broker (empty string when none).  Owned by the broker; valid until
 * the calling thread's next call on it.
 */
const char *usfq_broker_last_error(const usfq_broker *broker);

/**
 * Submit one request -- netlist-spec JSON, run-params JSON, and an
 * intent ("default", "throughput" or "audit"; NULL means default) --
 * and block until it completes, retrying internally while the queue
 * exerts backpressure.  On success stores the artifact-format result
 * document in @p out_json (caller frees with usfq_string_free); the
 * request's own failure (lint/STA/run) comes back as this call's
 * status.  A spec or params document that does not parse returns
 * USFQ_ERR_PARSE, one that fails a range or consistency check
 * USFQ_ERR_INVALID_ARG, as for usfq_engine_create and usfq_engine_run
 * (with the same last-error message).  @p out_cache_hit (optional) is
 * set to 1 when the result came out of the broker's cache.  Returns
 * USFQ_ERR_INTERNAL, with no last-error message, when the calling
 * thread's error slot cannot be allocated.
 */
int32_t usfq_broker_run(usfq_broker *broker, const char *spec_json,
                        const char *params_json, const char *intent,
                        int32_t *out_cache_hit, char **out_json);

/**
 * Serving-side accounting of a broker as one JSON object:
 * {"broker": {"submitted": ..., "rejected": ..., "completed": ...,
 * "failed": ..., "queue_depth_high_water": ..., "workers": [{"busy_us":
 * ..., "idle_us": ..., "utilization": ...}, ...]}, "cache": {...  as
 * usfq_cache_stats}, "stats": {... the stats of every completed run,
 * folded as each finished -- the same bytes in any completion order --
 * in the artifact "stats" shape}}.  Caller frees with usfq_string_free.
 */
int32_t usfq_broker_metrics(const usfq_broker *broker,
                            char **out_json);

/** Release a string returned via a `char **` out-parameter. */
void usfq_string_free(char *str);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* USFQ_API_USFQ_H */
