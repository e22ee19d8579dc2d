/**
 * @file
 * Batched counting arithmetic for the stream-level functional backend
 * (docs/functional.md, "Batched evaluation").
 *
 * The U-SFQ blocks reduce to pulse counts -- a unipolar product
 * carries floor(n*id/N) pulses, a balancer level ceil((a+b)/2) -- so a
 * batch of B independent epochs (one per Monte-Carlo seed, sweep
 * point or request) is B lanes of plain integers.  Operands are laid
 * out operand-major: operand k's B lane values sit contiguous at
 * data[k*B .. k*B+B), so every level of a model is one contiguous
 * pass across the lanes.  The facade's batched DPU, PE and FIR legs
 * run on these kernels, and so do the batched calls of the
 * multiplier, counting-tree, PE, DPU and FIR models
 * (func/components.hh).
 *
 * Equivalence contract (frozen by tests/batch_differential_test.cpp):
 * lane b of every output equals the scalar core/encoding.hh model
 * applied to lane b's operands -- batching is a performance knob,
 * never a semantics knob.
 *
 * Memory: scratch comes from a caller-owned WordArena that is reset()
 * once per batched epoch, so a steady-state epoch loop allocates
 * nothing.
 */

#ifndef USFQ_FUNC_BATCH_HH
#define USFQ_FUNC_BATCH_HH

#include <span>

#include "core/encoding.hh"
#include "util/arena.hh"

namespace usfq::func
{

/** out[b] = unipolarProductCount(cfg, ns[b], rl_ids[b]). */
void batchUnipolarProductCount(const EpochConfig &cfg,
                               std::span<const int> ns,
                               std::span<const int> rl_ids,
                               std::span<int> out);

/** out[b] = bipolarProductCount(cfg, ns[b], rl_ids[b]). */
void batchBipolarProductCount(const EpochConfig &cfg,
                              std::span<const int> ns,
                              std::span<const int> rl_ids,
                              std::span<int> out);

/**
 * Batched counting tree: @p products holds operand-major lanes for a
 * power-of-two operand count (products.size() == operands * B) and is
 * consumed in place; out[b] = treeNetworkCount over lane b's
 * operands.  The per-level ceiling halving runs across lanes, so the
 * inner loop vectorizes.
 */
void batchTreeNetworkCount(std::span<int> products, int lanes,
                           std::span<int> out);

/**
 * Batched DPU epoch: stream_counts/rl_ids are operand-major
 * (element k's B lanes contiguous), length elements per lane;
 * out[b] = dpuExpectedCount for lane b.  Scratch comes from @p arena.
 */
void batchDpuExpectedCount(const EpochConfig &cfg, DpuMode mode,
                           int length,
                           std::span<const int> stream_counts,
                           std::span<const int> rl_ids,
                           std::span<int> out, WordArena &arena);

/** out[b] = peExpectedSlot(cfg, in1[b], in2[b], in3[b]). */
void batchPeExpectedSlot(const EpochConfig &cfg,
                         std::span<const int> in1_ids,
                         std::span<const int> in2_counts,
                         std::span<const int> in3_counts,
                         std::span<int> out, WordArena &arena);

} // namespace usfq::func

#endif // USFQ_FUNC_BATCH_HH
