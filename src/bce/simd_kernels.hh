/**
 * @file
 * Vectorized span kernels over the SoA datapath tables.
 *
 * These kernels are the steady-state inner loops of the tiered
 * execution engine: given two int8 operand spans and a memoized
 * lut::DatapathTable, they produce the wrapped int32 accumulator plus
 * the summed micro-op tallies — exactly the values the scalar tiered
 * loop in bce.cc used to accumulate element by element, so the caller
 * books identical statistics (and therefore identical energy) no
 * matter which ISA variant ran.
 *
 * One kernel family serves every table the class collapse verifies,
 * at 4 and 8 bits and on spans of any length: products come from a
 * SIMD widening multiply and the micro-op tallies from the table's
 * verified 256-bin class-pair collapse (DatapathTable::pairDeltas).
 * The fold is computed in factored form — four per-class feature dot
 * products accumulated with byte shuffles and maddubs, mathematically
 * identical to materializing the 256-bin histogram and folding it
 * against pairDeltas(), but without the store-forwarding stalls a
 * binned counter array suffers on skewed class distributions.
 *
 *  - 4-bit conv spans (ConvClamp) clamp the operand bytes in-register
 *    before they are classified and multiplied; 4-bit matmul spans
 *    (MatmulStrict) check each block and hand the rest of the span to
 *    the scalar loop on a violation, which reports the first offender
 *    in element order.
 *  - The ragged tail of a span is one more step of the same fold over
 *    zero-filled lanes (masked loads on AVX-512, a zeroed copy on
 *    AVX2). Zero is class 0 with zero features and zero product, so
 *    padding adds nothing to any sum.
 *  - A table that does not report productsExact() AND
 *    histogramExact() — a rewritten LUT row, a doctored test table —
 *    walks the scalar table loop at every level.
 *
 * Variant selection is runtime CPU dispatch (sim/cpuid): one x86
 * binary carries scalar, AVX2 and AVX-512 paths (any other CPU runs the
 * scalar reference), and CI pins each via BFREE_FORCE_SCALAR /
 * BFREE_FORCE_ISA to differentially verify them all on one host.
 */

#ifndef BFREE_BCE_SIMD_KERNELS_HH
#define BFREE_BCE_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>

#include "lut/datapath_table.hh"

namespace bfree::bce::simd {

/** Everything a span kernel accumulates. */
struct SpanSums
{
    /** Wrapped int32 sum of per-pair products (identical to the
     *  truncated int64 accumulation of the scalar loop). */
    std::int32_t acc = 0;
    std::uint64_t lookups = 0; ///< LUT-row or ROM reads (table source).
    std::uint64_t shifts = 0;
    std::uint64_t adds = 0;    ///< Intra-multiply adds only.
    std::uint64_t cycles = 0;
    /** False when MatmulStrict found an out-of-domain operand; the
     *  caller must reproduce the legacy analyzer panic. */
    bool inRange = true;
    std::size_t firstOutOfRange = 0;
};

/** Domain handling for operands outside [-2^(bits-1), +2^(bits-1)]. */
enum class SpanSemantics
{
    /** Conv spans clamp 4-bit operands to [-8, 7] like the legacy
     *  dotProduct. */
    ConvClamp,
    /** Matmul spans must refuse out-of-domain operands (the legacy
     *  analyzer panics); the kernel reports the first offender. */
    MatmulStrict,
};

/**
 * Run the dispatched span kernel: sum of products and micro-op
 * tallies for a[i] * b[i], i in [0, len), served from @p table.
 * The table must be valid and cover both operand spans' precision.
 */
SpanSums run_span(const lut::DatapathTable &table, const std::int8_t *a,
                  const std::int8_t *b, std::size_t len,
                  SpanSemantics semantics);

/**
 * A strided view of an int8 operand span: the logical span is nRuns
 * runs of runLen bytes each, run i starting at base + offsets[i] (or
 * base + i * stride when offsets is null). This is how the elided
 * conv front end addresses im2col patches in place over the quantized
 * input plane — base advances by strideW per output position, the
 * offsets/stride describe the (channel, kernel-row) runs — without
 * materializing a patch per (position, filter) pair.
 */
struct SpanView
{
    const std::int8_t *base = nullptr;
    /** Per-run byte offsets from base; null selects the uniform
     *  stride addressing below. */
    const std::int32_t *offsets = nullptr;
    /** Run-to-run byte stride when offsets is null. */
    std::size_t stride = 0;
    std::size_t nRuns = 0;
    std::size_t runLen = 0;

    /** Slack bytes slack8 callers reserve past source and dest. */
    static constexpr std::size_t slackBytes = 8;

    /**
     * The caller guarantees slackBytes readable bytes from every run's
     * start in the source AND slackBytes writable bytes from every
     * run's start in the destination (i.e. both buffers carry >= 8
     * bytes of slack past the last touched byte). Lets short runs copy
     * a full 8-byte word each — earlier runs' overshoot is overwritten
     * by later runs, the last run's lands in the slack — roughly
     * halving the cost of the 3-byte runs a 3x3 conv produces. With
     * slack8 false every write is exact-width.
     */
    bool slack8 = false;

    std::size_t len() const { return nRuns * runLen; }
};

/**
 * Compact @p view into the contiguous @p dst span (len() bytes) that
 * run_span consumes. Exactly the bytes im2col_patch_i8 would have
 * copied, but with the per-run layer-geometry branching hoisted out:
 * the inner loop is fixed-width loads/stores specialized per run
 * length, roughly an order of magnitude cheaper than the per-run
 * clip-and-memcpy walk for the 3-byte runs a 3x3 conv produces.
 * Without view.slack8 it writes exactly len() bytes — no padding, no
 * overshoot; with it, up to 8 - runLen bytes past len() are clobbered
 * (the slack the caller reserved).
 */
void materialize_span_view(const SpanView &view, std::int8_t *dst);

/**
 * Materialize @p nPatches consecutive patches in one call: patch j
 * reads its runs at view.base + j * srcStep and writes to
 * dst + j * dstStep. For the stride-1 conv row this transposes the
 * loop — each run's sources across the row are consecutive bytes, so
 * the run offset is loaded once per row instead of once per patch —
 * which is worth ~2x over nPatches separate materialize_span_view
 * calls. Slack requirements (view.slack8) are per patch, i.e. 8 bytes
 * past every run start of every patch on both sides.
 */
void materialize_span_block(const SpanView &view, std::size_t nPatches,
                            std::size_t srcStep, std::int8_t *dst,
                            std::size_t dstStep);

} // namespace bfree::bce::simd

#endif // BFREE_BCE_SIMD_KERNELS_HH
