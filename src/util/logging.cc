#include "util/logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

namespace usfq
{

namespace
{

std::atomic<bool> quietMode{false};
std::atomic<std::uint64_t> warnCalls{0};
std::atomic<std::uint64_t> informCalls{0};
// Per thread: one thread's ScopedFatalThrow must never change what a
// fatal() on another thread does.
thread_local FatalMode fatalDisposition = FatalMode::Exit;
std::atomic<FatalCallback> fatalCb{nullptr};
std::atomic<void *> fatalCbCtx{nullptr};

std::string
vstrprintf(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::vector<char> buf(static_cast<size_t>(len) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(len));
}

} // namespace

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    if (FatalCallback cb = fatalCb.load(std::memory_order_acquire))
        cb(s.c_str(), fatalCbCtx.load(std::memory_order_acquire));
    if (fatalDisposition == FatalMode::Throw)
        throw FatalError(s);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

FatalMode
fatalMode()
{
    return fatalDisposition;
}

FatalMode
setFatalMode(FatalMode mode)
{
    return std::exchange(fatalDisposition, mode);
}

void
setFatalCallback(FatalCallback cb, void *ctx)
{
    // Context first: a reader pairing the new callback with the old
    // context would be the dangerous interleaving.
    fatalCbCtx.store(ctx, std::memory_order_release);
    fatalCb.store(cb, std::memory_order_release);
}

void
warn(const char *fmt, ...)
{
    warnCalls.fetch_add(1, std::memory_order_relaxed);
    if (quietMode.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", s.c_str());
}

void
inform(const char *fmt, ...)
{
    informCalls.fetch_add(1, std::memory_order_relaxed);
    if (quietMode.load(std::memory_order_relaxed))
        return;
    va_list args;
    va_start(args, fmt);
    std::string s = vstrprintf(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", s.c_str());
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet, std::memory_order_relaxed);
}

std::uint64_t
warnCount()
{
    return warnCalls.load(std::memory_order_relaxed);
}

std::uint64_t
informCount()
{
    return informCalls.load(std::memory_order_relaxed);
}

void
resetLogCounts()
{
    warnCalls.store(0, std::memory_order_relaxed);
    informCalls.store(0, std::memory_order_relaxed);
}

} // namespace usfq
