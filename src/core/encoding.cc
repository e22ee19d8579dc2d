#include "core/encoding.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace usfq
{

EpochConfig::EpochConfig(int bits, Tick slot_width)
    : nbits(bits), slot(slot_width)
{
    if (bits < 1 || bits > 20)
        fatal("EpochConfig: resolution %d bits out of supported range "
              "1..20", bits);
    if (slot_width <= 0)
        fatal("EpochConfig: slot width must be positive");
}

Tick
EpochConfig::rlTime(int id) const
{
    if (id < 0 || id > nmax())
        panic("EpochConfig: RL id %d out of range 0..%d", id, nmax());
    return static_cast<Tick>(id) * slot;
}

int
EpochConfig::rlSlotOf(Tick t) const
{
    if (t < 0)
        return 0;
    const Tick id = (t + slot / 2) / slot;
    return static_cast<int>(std::min<Tick>(id, nmax()));
}

int
EpochConfig::rlIdOfUnipolar(double value) const
{
    const double clamped = std::clamp(value, 0.0, 1.0);
    return static_cast<int>(std::lround(clamped * nmax()));
}

int
EpochConfig::rlIdOfBipolar(double value) const
{
    return rlIdOfUnipolar((std::clamp(value, -1.0, 1.0) + 1.0) / 2.0);
}

double
EpochConfig::rlUnipolar(int id) const
{
    return static_cast<double>(id) / nmax();
}

double
EpochConfig::rlBipolar(int id) const
{
    return 2.0 * rlUnipolar(id) - 1.0;
}

int
EpochConfig::streamCountOfUnipolar(double value) const
{
    const double clamped = std::clamp(value, 0.0, 1.0);
    return static_cast<int>(std::lround(clamped * nmax()));
}

int
EpochConfig::streamCountOfBipolar(double value) const
{
    return streamCountOfUnipolar((std::clamp(value, -1.0, 1.0) + 1.0) / 2.0);
}

double
EpochConfig::decodeUnipolar(std::size_t count) const
{
    return static_cast<double>(count) / nmax();
}

double
EpochConfig::decodeBipolar(std::size_t count) const
{
    return 2.0 * decodeUnipolar(count) - 1.0;
}

std::vector<int>
EpochConfig::streamSlots(int count) const
{
    const int n_slots = nmax();
    if (count < 0 || count > n_slots)
        panic("EpochConfig: stream count %d out of range 0..%d", count,
              n_slots);
    std::vector<int> slots;
    slots.reserve(static_cast<std::size_t>(count));
    // Euclidean rhythm: slot i fires iff the running total
    // floor((i+1)*count/n) advances.
    std::int64_t acc = 0;
    for (int i = 0; i < n_slots; ++i) {
        const std::int64_t next =
            static_cast<std::int64_t>(i + 1) * count / n_slots;
        if (next > acc)
            slots.push_back(i);
        acc = next;
    }
    return slots;
}

std::vector<int>
EpochConfig::complementSlots(int count) const
{
    const auto occupied = streamSlots(count);
    std::vector<int> rest;
    rest.reserve(static_cast<std::size_t>(nmax() - count));
    std::size_t j = 0;
    for (int i = 0; i < nmax(); ++i) {
        if (j < occupied.size() && occupied[j] == i)
            ++j;
        else
            rest.push_back(i);
    }
    return rest;
}

Tick
EpochConfig::slotCenter(int slot_index, Tick start) const
{
    return start + static_cast<Tick>(slot_index) * slot + slot / 2;
}

std::vector<Tick>
EpochConfig::streamTimes(int count, Tick start) const
{
    const auto slots = streamSlots(count);
    std::vector<Tick> times;
    times.reserve(slots.size());
    for (int s : slots)
        times.push_back(slotCenter(s, start));
    return times;
}

int
unipolarProductCount(const EpochConfig &cfg, int n, int rl_id)
{
    // Stream pulses sit at slot centers; the RL pulse lands on the
    // slot boundary rl_id, so exactly the pulses in slots < rl_id
    // pass.  For the Euclidean rhythm the prefix count telescopes to
    // floor(rl_id * n / N) -- no need to materialize the slots.  N is
    // 2^bits and both factors are checked non-negative, so the floor
    // is a shift.
    if (n < 0 || n > cfg.nmax())
        panic("unipolarProductCount: stream count %d out of range", n);
    if (rl_id < 0 || rl_id > cfg.nmax())
        panic("unipolarProductCount: RL id %d out of range", rl_id);
    return static_cast<int>((static_cast<std::int64_t>(rl_id) * n) >>
                            cfg.bits());
}

int
bipolarProductCount(const EpochConfig &cfg, int n, int rl_id)
{
    // O1 = A&B: stream pulses before the RL arrival.
    const int o1 = unipolarProductCount(cfg, n, rl_id);
    // O2 = !A&!B: complement pulses at or after the RL arrival.  The
    // complement has N-n pulses total, of which (rl_id - o1) lie
    // before the RL pulse.
    const int o2 = (cfg.nmax() - n) - (rl_id - o1);
    return o1 + o2;
}

int
treeNetworkCount(std::span<int> inputs)
{
    if (inputs.empty())
        panic("treeNetworkCount: no inputs");
    if ((inputs.size() & (inputs.size() - 1)) != 0)
        panic("treeNetworkCount: %zu inputs (need a power of two)",
              inputs.size());
    // Halve in place: node k of the next level lands in slot k, whose
    // old value fed node k / 2 <= k and has been read already.
    for (std::size_t n = inputs.size(); n > 1; n /= 2) {
        for (std::size_t k = 0; k < n / 2; ++k) {
            // A balancer sends the first of each pulse pair to Y1, so
            // the Y1 chain carries the ceiling half.
            inputs[k] = (inputs[2 * k] + inputs[2 * k + 1] + 1) / 2;
        }
    }
    return inputs.front();
}

int
mergerTreeUnionCount(const EpochConfig &cfg,
                     const std::vector<int> &counts)
{
    if (counts.empty())
        panic("mergerTreeUnionCount: no inputs");
    const int n_slots = cfg.nmax();
    for (int n : counts)
        if (n < 0 || n > n_slots)
            panic("mergerTreeUnionCount: count %d out of range", n);
    // Union of the Euclidean slot sets.  Slot i of an n-count stream
    // is occupied iff floor((i+1)n/N) > floor(i*n/N); evaluate the
    // predicate directly per (slot, stream).  N is 2^bits and both
    // factors are non-negative, so each floor is a shift.
    const int bits = cfg.bits();
    int unioned = 0;
    for (int i = 0; i < n_slots; ++i) {
        for (int n : counts) {
            const auto lo = (static_cast<std::int64_t>(i) * n) >> bits;
            const auto hi = (static_cast<std::int64_t>(i + 1) * n) >> bits;
            if (hi > lo) {
                ++unioned;
                break;
            }
        }
    }
    return unioned;
}

int
mergerTreeCollisionLoss(const EpochConfig &cfg,
                        const std::vector<int> &counts)
{
    int sum = 0;
    for (int n : counts)
        sum += n;
    return sum - mergerTreeUnionCount(cfg, counts);
}

std::vector<int>
uniformPnmSlots(int bits, int value)
{
    if (bits < 1 || bits > 20)
        panic("uniformPnmSlots: %d bits unsupported", bits);
    if (value < 0 || value >= (1 << bits))
        panic("uniformPnmSlots: value %d out of range 0..%d", value,
              (1 << bits) - 1);
    std::vector<int> slots;
    slots.reserve(static_cast<std::size_t>(value));
    for (int i = 1; i < (1 << bits); ++i) {
        // Stage k = 2-adic valuation of the 1-based clock index; the
        // index 2^bits itself (valuation == bits) is the epoch marker.
        int k = 0;
        while (((i >> k) & 1) == 0)
            ++k;
        if ((value >> (bits - 1 - k)) & 1)
            slots.push_back(i - 1);
    }
    return slots;
}

int
dpuExpectedCount(const EpochConfig &cfg, DpuMode mode,
                 const std::vector<int> &stream_counts,
                 const std::vector<int> &rl_ids)
{
    if (stream_counts.size() != rl_ids.size())
        panic("dpuExpectedCount: operand size mismatch");
    // Padded inputs carry no pulses (a bipolar -1); the DPU decode
    // compensates for their contribution.
    return paddedTreeCount(stream_counts.size(), [&](std::size_t i) {
        return mode == DpuMode::Unipolar
                   ? unipolarProductCount(cfg, stream_counts[i], rl_ids[i])
                   : bipolarProductCount(cfg, stream_counts[i], rl_ids[i]);
    });
}

int
peExpectedSlot(const EpochConfig &cfg, int in1_id, int in2_count,
               int in3_count)
{
    // treeNetworkCount({product, in3}): the Y1 chain's ceiling half.
    const int product = unipolarProductCount(cfg, in2_count, in1_id);
    return std::min((product + in3_count + 1) / 2, cfg.nmax());
}

} // namespace usfq
