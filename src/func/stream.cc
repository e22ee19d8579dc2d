#include "func/stream.hh"

#include <bit>

#include "util/logging.hh"
#include "util/span_kernels.hh"

namespace usfq::func
{

namespace
{

/**
 * Mask of the valid bits in the last packed word of a cfg-sized
 * stream: all ones when nmax is a multiple of 64.  Every op that can
 * set bits beyond the window (complement, XNOR products) must AND its
 * last word with this -- the tail-bit invariant.
 */
std::uint64_t
tailMask(const EpochConfig &cfg)
{
    const int tail = cfg.nmax() % 64;
    return tail == 0 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << tail) - 1;
}

} // namespace

PulseStream::PulseStream(const EpochConfig &config)
    : cfg(config), bits(wordCount(config), 0)
{
}

std::size_t
PulseStream::wordCount(const EpochConfig &cfg)
{
    return (static_cast<std::size_t>(cfg.nmax()) + 63) / 64;
}

PulseStream
PulseStream::euclidean(const EpochConfig &cfg, int count)
{
    return fromSlots(cfg, cfg.streamSlots(count));
}

PulseStream
PulseStream::fromSlots(const EpochConfig &cfg,
                       const std::vector<int> &slots)
{
    PulseStream s(cfg);
    for (int i : slots) {
        const int slot = s.checkedSlot(i);
        s.bits[static_cast<std::size_t>(slot) / 64] |=
            std::uint64_t{1} << (slot % 64);
    }
    return s;
}

PulseStream
PulseStream::empty(const EpochConfig &cfg)
{
    return PulseStream(cfg);
}

int
PulseStream::checkedSlot(int i) const
{
    if (i < 0 || i >= cfg.nmax())
        panic("PulseStream: slot %d out of range 0..%d", i,
              cfg.nmax() - 1);
    return i;
}

int
PulseStream::count() const
{
    return static_cast<int>(span::wordPopcount(bits.data(),
                                               bits.size()));
}

bool
PulseStream::occupied(int i) const
{
    const int slot = checkedSlot(i);
    return (bits[static_cast<std::size_t>(slot) / 64] >> (slot % 64)) &
           1;
}

PulseStream
PulseStream::complement() const
{
    PulseStream out(cfg);
    span::wordNot(out.bits.data(), bits.data(), bits.size());
    out.bits.back() &= tailMask(cfg);
    return out;
}

PulseStream
PulseStream::maskBelow(int rl_id) const
{
    if (rl_id < 0 || rl_id > cfg.nmax())
        panic("PulseStream: RL id %d out of range 0..%d", rl_id,
              cfg.nmax());
    PulseStream out(cfg);
    for (std::size_t w = 0; w < bits.size(); ++w) {
        const int base = static_cast<int>(w) * 64;
        if (rl_id >= base + 64) {
            out.bits[w] = bits[w];
        } else if (rl_id > base) {
            out.bits[w] =
                bits[w] & ((std::uint64_t{1} << (rl_id - base)) - 1);
        }
    }
    return out;
}

PulseStream
PulseStream::maskAtOrAbove(int rl_id) const
{
    PulseStream below = maskBelow(rl_id);
    PulseStream out(cfg);
    span::wordAndNot(out.bits.data(), bits.data(), below.bits.data(),
                     bits.size());
    return out;
}

PulseStream
PulseStream::unionWith(const PulseStream &other) const
{
    if (cfg != other.cfg)
        panic("PulseStream: epoch-config mismatch in union");
    PulseStream out(cfg);
    span::wordOr(out.bits.data(), bits.data(), other.bits.data(),
                 bits.size());
    return out;
}

PulseStream
PulseStream::intersectWith(const PulseStream &other) const
{
    if (cfg != other.cfg)
        panic("PulseStream: epoch-config mismatch in intersection");
    PulseStream out(cfg);
    span::wordAnd(out.bits.data(), bits.data(), other.bits.data(),
                  bits.size());
    return out;
}

std::vector<int>
PulseStream::slots() const
{
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(count()));
    for (std::size_t w = 0; w < bits.size(); ++w) {
        std::uint64_t word = bits[w];
        while (word != 0) {
            const int b = std::countr_zero(word);
            out.push_back(static_cast<int>(w) * 64 + b);
            word &= word - 1;
        }
    }
    return out;
}

std::vector<Tick>
PulseStream::times(Tick start) const
{
    const auto occupied_slots = slots();
    std::vector<Tick> out;
    out.reserve(occupied_slots.size());
    for (int s : occupied_slots)
        out.push_back(cfg.slotCenter(s, start));
    return out;
}

double
PulseStream::decodeUnipolar() const
{
    return cfg.decodeUnipolar(static_cast<std::size_t>(count()));
}

double
PulseStream::decodeBipolar() const
{
    return cfg.decodeBipolar(static_cast<std::size_t>(count()));
}

PulseStream
bipolarProductStream(const PulseStream &a, int rl_id)
{
    return a.maskBelow(rl_id).unionWith(
        a.complement().maskAtOrAbove(rl_id));
}

} // namespace usfq::func
