#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "bench.hh"

namespace perfbench
{

std::uint64_t
SpanLog::open(const std::string &name, std::uint64_t parent)
{
    if (!enabled)
        return 0;
    Span s;
    s.name = name;
    s.id = spans.size() + 1;
    s.parent = parent;
    s.startNs = nowNs();
    spans.push_back(std::move(s));
    return spans.back().id;
}

void
SpanLog::close(std::uint64_t id)
{
    if (id == 0)
        return;
    Span &s = spans[id - 1];
    s.durNs = nowNs() - s.startNs;
}

void
SpanLog::setWork(std::uint64_t id, double work)
{
    if (id != 0)
        spans[id - 1].work = work;
}

void
SpanLog::append(const SpanLog &other)
{
    const std::uint64_t base = spans.size();
    for (Span s : other.spans) {
        s.id += base;
        if (s.parent != 0)
            s.parent += base;
        spans.push_back(std::move(s));
    }
}

namespace
{

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> cover(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent == 0)
            continue;
        const auto it = index.find(s.parent);
        if (it == index.end())
            continue;
        const Span &p = spans[it->second];
        const std::int64_t lo = std::max(s.startNs, p.startNs);
        const std::int64_t hi =
            std::min(s.startNs + s.durNs, p.startNs + p.durNs);
        if (hi > lo)
            cover[it->second].emplace_back(lo, hi);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &iv = cover[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, end = INT64_MIN;
        for (const auto &[lo, hi] : iv) {
            const std::int64_t from = std::max(lo, end);
            if (hi > from)
                covered += hi - from;
            end = std::max(end, hi);
        }
        self[i] = spans[i].durNs - covered;
    }
    return self;
}

} // namespace

std::map<std::string, double>
selfByName(const std::vector<Span> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += static_cast<double>(self[i]);
    return out;
}

double
nsPerUnit(const std::vector<Span> &spans, const std::string &name)
{
    double ns = 0.0, work = 0.0;
    for (const Span &s : spans) {
        if (s.name != name || s.work <= 0.0)
            continue;
        ns += static_cast<double>(s.durNs);
        work += s.work;
    }
    return work > 0.0 ? ns / work : 0.0;
}

std::vector<double>
durationsUs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.durNs) / 1e3);
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

Summary
summarize(const std::vector<OpSample> &ops, double seconds)
{
    std::vector<std::vector<double>> slices(kSlices);
    const double sliceNs = seconds * 1e9 / kSlices;
    for (const OpSample &op : ops) {
        const int k = std::clamp(
            static_cast<int>(static_cast<double>(op.endNs) / sliceNs), 0,
            kSlices - 1);
        slices[static_cast<std::size_t>(k)].push_back(op.latencyMs);
    }
    std::vector<double> rate, p50, p99;
    Summary out;
    out.fewestPerSlice = ops.size();
    for (const std::vector<double> &s : slices) {
        rate.push_back(static_cast<double>(s.size()) * 1e9 / sliceNs);
        p50.push_back(percentile(s, 50));
        p99.push_back(percentile(s, 99));
        out.fewestPerSlice = std::min(out.fewestPerSlice, s.size());
    }
    out.opsPerS = percentile(rate, 50);
    out.p50Ms = percentile(p50, 50);
    out.p99Ms = percentile(p99, 50);
    return out;
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
foldStr(std::uint64_t h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return fold(h, s.size());
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     i == 0 ? "" : ",", s.name.c_str(),
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.durNs) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
