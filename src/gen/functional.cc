#include "gen/functional.hh"

#include <algorithm>
#include <span>
#include <utility>

#include "util/random.hh"

namespace usfq::gen
{

namespace
{

/**
 * The paper balancer (case analysis of Fig. 6): a coincident pair
 * leaves one pulse on each output with the routing state unchanged; a
 * single pulse exits y1 when the quantizing loop is "0" and y2 when it
 * is "1", toggling the loop.  Only y1 chains in the counting tree.
 */
void
balancerY1(std::span<const int> a, std::span<const int> b,
           std::vector<int> &y1)
{
    std::size_t i = 0;
    std::size_t j = 0;
    bool state = false;
    while (i < a.size() || j < b.size()) {
        int slot = 0;
        int mult = 1;
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
            slot = a[i++];
        } else if (i >= a.size() || b[j] < a[i]) {
            slot = b[j++];
        } else {
            slot = a[i];
            ++i;
            ++j;
            mult = 2;
        }
        if (mult == 2) {
            y1.push_back(slot); // one pulse per output, state kept
        } else {
            if (!state)
                y1.push_back(slot);
            state = !state;
        }
    }
}

/** Confluence buffer: set union, handed to @p emit slot by slot; a
 *  coincident pair loses one pulse. */
template <typename Emit>
void
mergeUnion(std::span<const int> a, std::span<const int> b,
           long long &lost, Emit &&emit)
{
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        if (j >= b.size() || (i < a.size() && a[i] < b[j])) {
            emit(a[i++]);
        } else if (i >= a.size() || b[j] < a[i]) {
            emit(b[j++]);
        } else {
            emit(a[i]);
            ++i;
            ++j;
            ++lost;
        }
    }
}

/** Slots @p lane emits, appended to @p out (the rule laneSlots()
 *  documents). */
void
appendLaneSlots(const DesignSpec &spec, int lane, int n, bool gate_on,
                std::vector<int> &out)
{
    // The divider chain keeps every 2^k-th clock slot when the gate is
    // on.  Bipolar lanes go through a clocked inverter, which emits at
    // clock slot m iff no data pulse arrived since the previous clock,
    // i.e. the complement within [0, n).
    const int mask = (1 << spec.dividersOf(lane)) - 1;
    const bool bipolar = spec.encoding == StreamEncoding::Bipolar;
    for (int m = 0; m < n; ++m) {
        const bool data = gate_on && ((m + 1) & mask) == 0;
        if (data != bipolar)
            out.push_back(m);
    }
}

} // namespace

std::vector<int>
laneSlots(const DesignSpec &spec, int lane, int n, bool gate_on)
{
    std::vector<int> slots;
    appendLaneSlots(spec, lane, n, gate_on, slots);
    return slots;
}

EpochInputs
drawEpochInputs(const DesignSpec &spec, std::uint64_t seed)
{
    Rng rng(seed);
    EpochInputs in;
    in.n = static_cast<int>(rng.uniformInt(1, spec.nmax()));
    in.gates.resize(static_cast<std::size_t>(spec.lanes));
    const UniformInt gate(0, 3);
    for (int i = 0; i < spec.lanes; ++i)
        in.gates[static_cast<std::size_t>(i)] = gate(rng) != 0;
    return in;
}

EpochEval
EpochMirror::eval(const DesignSpec &spec, const EpochInputs &in)
{
    EpochEval eval;
    // No level holds more slots than the lanes emit together.
    const std::size_t capacity =
        static_cast<std::size_t>(spec.lanes) *
        static_cast<std::size_t>(std::max(in.n, 0));
    Level *cur = &levels[0];
    Level *next = &levels[1];
    cur->slots.clear();
    cur->slots.reserve(capacity);
    next->slots.reserve(capacity);
    cur->offsets.assign(1, 0);
    for (int i = 0; i < spec.lanes; ++i) {
        const bool gate =
            in.gates.empty() || in.gates[static_cast<std::size_t>(i)];
        appendLaneSlots(spec, i, in.n, gate, cur->slots);
        cur->offsets.push_back(cur->slots.size());
    }
    eval.laneSum = static_cast<long long>(cur->slots.size());

    for (std::size_t nodes = cur->offsets.size() - 1; nodes > 1;
         nodes /= 2) {
        next->slots.clear();
        next->offsets.assign(1, 0);
        const std::span<const int> all(cur->slots);
        for (std::size_t k = 0; k < nodes; k += 2) {
            const std::span<const int> a =
                all.subspan(cur->offsets[k],
                            cur->offsets[k + 1] - cur->offsets[k]);
            const std::span<const int> b =
                all.subspan(cur->offsets[k + 1],
                            cur->offsets[k + 2] - cur->offsets[k + 1]);
            std::vector<int> &out = next->slots;
            switch (spec.tree) {
            case TreeKind::Balancer:
                balancerY1(a, b, out);
                break;
            case TreeKind::Merger:
                mergeUnion(a, b, eval.lost,
                           [&out](int slot) { out.push_back(slot); });
                break;
            case TreeKind::Tff2: {
                // Cheap balancer [31]: merger union, then the TFF2
                // demultiplexes the survivors -- q1 takes the 1st,
                // 3rd, 5th... pulse.
                bool q1 = true;
                mergeUnion(a, b, eval.lost, [&out, &q1](int slot) {
                    if (q1)
                        out.push_back(slot);
                    q1 = !q1;
                });
                break;
            }
            }
            next->offsets.push_back(out.size());
        }
        std::swap(cur, next);
    }
    eval.count = static_cast<long long>(cur->slots.size());
    return eval;
}

EpochEval
evalEpoch(const DesignSpec &spec, const EpochInputs &in)
{
    return EpochMirror().eval(spec, in);
}

} // namespace usfq::gen
