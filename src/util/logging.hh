/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic() is for internal invariant violations (simulator bugs) and
 * aborts; fatal() is for user-caused conditions (bad configuration) and
 * exits cleanly; warn()/inform() report without stopping.
 */

#ifndef USFQ_UTIL_LOGGING_HH
#define USFQ_UTIL_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace usfq
{

/**
 * The exception fatal() raises in FatalMode::Throw: what() carries the
 * formatted message.  Embedding hosts (the C ABI in src/api/, the
 * request broker in src/svc/) catch this at their boundary and turn it
 * into an error code instead of losing the process.
 */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** What fatal() does after formatting its message. */
enum class FatalMode
{
    /** Print to stderr and exit(1) -- the CLI bench default. */
    Exit,
    /** Throw FatalError (nothing is printed; the host reports). */
    Throw,
};

/** Printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Internal invariant violated: print and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable user error.  In FatalMode::Exit (the default): print
 * and exit(1).  In FatalMode::Throw: raise FatalError instead, so an
 * embedding host survives bad requests.  Either way the registered
 * fatal callback (if any) sees the message first, and the call never
 * returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * The calling thread's fatal() disposition.  Thread-local: every thread
 * starts in Exit, and runSweep hands the caller's mode to its pool
 * threads (sim/sweep.hh).
 */
FatalMode fatalMode();

/** Set the calling thread's fatal() disposition; returns the previous
 *  mode. */
FatalMode setFatalMode(FatalMode mode);

/**
 * Observer invoked with the formatted message before fatal() exits or
 * throws -- lets a host log/forward diagnostics regardless of mode.
 * One callback process-wide; null (the default) disables it.  The
 * callback must not itself call fatal().
 */
using FatalCallback = void (*)(const char *message, void *ctx);
void setFatalCallback(FatalCallback cb, void *ctx = nullptr);

/**
 * RAII guard switching the calling thread's fatal() to
 * FatalMode::Throw for its lifetime (restoring the previous mode on
 * destruction).  Guards on different threads are independent, so one
 * broker worker leaving its guard cannot turn another worker's fatal()
 * back into an exit.  Sweep pool threads spawned inside the guarded
 * region start in the caller's mode, so their FatalError propagates
 * back through runSweep's rethrow.
 */
class ScopedFatalThrow
{
  public:
    ScopedFatalThrow() : prev(setFatalMode(FatalMode::Throw)) {}
    ~ScopedFatalThrow() { setFatalMode(prev); }
    ScopedFatalThrow(const ScopedFatalThrow &) = delete;
    ScopedFatalThrow &operator=(const ScopedFatalThrow &) = delete;

  private:
    FatalMode prev;
};

/** Non-fatal warning to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Informational message to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Silence warn()/inform() (used by tests and benches).  Atomic:
 * sweep shards may toggle or log concurrently. */
void setQuiet(bool quiet);

/**
 * Total warn() / inform() calls since process start (or the last
 * resetLogCounts()).  Counted even while quiet, so "0 warnings" is a
 * machine-checkable property of a run: bench artifacts embed these.
 */
std::uint64_t warnCount();
std::uint64_t informCount();

/** Zero the warn/inform counters (tests, bench harness setup). */
void resetLogCounts();

} // namespace usfq

#endif // USFQ_UTIL_LOGGING_HH
