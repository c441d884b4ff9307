/**
 * @file
 * Vectorized kernels over the SoA datapath tables.
 *
 * These kernels are the steady-state inner loops of the tiered
 * execution engine. Each one produces the wrapped int32 products plus
 * the summed micro-op tallies — exactly the values the legacy scalar
 * path accumulates element by element, so the caller books identical
 * statistics (and therefore identical energy) no matter which ISA
 * variant ran. Both families rest on the table's verified bilinear
 * fold: a pair's four micro-op counts are products of tiny per-operand
 * class features (DatapathTable::class_feature_*).
 *
 * Conv spans (run_span): one int8 span against another, products from
 * a SIMD widening multiply and the tallies from the per-pair feature
 * dot products, accumulated with byte shuffles and maddubs. 4-bit conv
 * spans clamp the operand bytes to [-8, 7] in-register before they are
 * classified and multiplied. The ragged tail of a span is one more
 * step of the same fold over zero-filled lanes (masked loads on
 * AVX-512, a zeroed copy on AVX2); zero is class 0 with zero features
 * and zero product, so padding adds nothing to any sum. A table that
 * does not report productsExact() AND histogramExact() — a rewritten
 * LUT row, a doctored test table — walks the scalar table loop at
 * every level.
 *
 * Matmul tiles (column_features, fold_tile, tile_products): the
 * fold summed over every (i, j) pair of an m x k by n x k tile first
 * factors into per-column sums of each operand's features, so a tile
 * classifies each operand once rather than once per MAC pair (see
 * lut::ColumnFeatures). Products are a plain int8 GEMM with wrapping
 * int32 accumulation; a 4-bit frozen tile's weights arrive
 * nibble-packed (lut::PackedTile) and meet A through an
 * unsigned-by-signed byte multiply-add.
 *
 * PWL spans (pwl_span): sigmoid/tanh/exp over a run of doubles, the
 * segment index truncated from the same division and alpha * x + beta
 * rounded in the same two steps as lut::PwlTable::evaluate.
 *
 * Variant selection is runtime CPU dispatch (sim/cpuid): one x86
 * binary carries scalar, AVX2 and AVX-512 paths (any other CPU runs the
 * scalar reference), and CI pins each via BFREE_FORCE_ISA to
 * differentially verify them all on one host.
 */

#ifndef BFREE_BCE_SIMD_KERNELS_HH
#define BFREE_BCE_SIMD_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lut/datapath_table.hh"
#include "lut/packing.hh"
#include "lut/pwl.hh"

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
};

/**
 * Run the dispatched conv span kernel: sum of products and micro-op
 * tallies for a[i] * b[i], i in [0, len), served from @p table. At 4
 * bits both operands are clamped to [-8, 7] like the legacy conv
 * dotProduct. The table must be valid.
 */
SpanSums run_span(const lut::DatapathTable &table, const std::int8_t *a,
                  const std::int8_t *b, std::size_t len);

/** The four feature dot products of a tile: P = sum p(a)p(b),
 *  O = sum o(a)o(b), L = sum l(a)l(b), Z = sum z(a)z(b). */
struct FeatureSums
{
    std::uint64_t p = 0, o = 0, l = 0, z = 0;
};

/**
 * Classify every entry of the row-major @p rows x @p cols int8 matrix
 * @p m once and sum its class features down each column of every
 * 63-row block into @p out (sums overwritten; storage only grows, so a
 * reused scratch object stops allocating once it has seen its largest
 * shape). Also records the largest operand magnitude. Vector levels
 * sum a block in byte lanes, one classification per 32 or 64 entries.
 */
void column_features(const std::int8_t *m, std::size_t rows,
                     std::size_t cols, lut::ColumnFeatures &out);

/**
 * The tally of an m x k by n x k tile against BT's column features
 * @p bt: A is classified once, its features summed down each column of
 * every 63-row block in byte lanes and folded straight against every
 * block of @p bt — per feature, sum_t FA_t * FB_t. Also reports A's
 * largest operand magnitude through @p maxA.
 */
FeatureSums fold_tile(const std::int8_t *a, std::size_t m, std::size_t k,
                      const lut::ColumnFeatures &bt, std::uint32_t &maxA);

/**
 * The products of an m x k by n x k tile: out[i*n + j] +=
 * dot(a[i], bt[j]), accumulated mod 2^32 (any summation order gives
 * the same wrapped sum). Every A row is widened once into @p wide
 * (grow-only scratch), then BT is walked four rows at a time with A's
 * rows in register blocks inside, so BT streams once per call rather
 * than once per A row. Never reads past the last byte of either
 * operand.
 */
void tile_products(const std::int8_t *a, const std::int8_t *bt,
                   std::int32_t *out, std::size_t m, std::size_t k,
                   std::size_t n, std::vector<std::int16_t> &wide);

/** Grow-only scratch of the packed tile kernel: every A row staged
 *  zero-padded to whole groups, and each row's -8 * sum(row) term. */
struct PackedRows
{
    std::vector<std::int8_t> bytes;
    std::vector<std::uint32_t> bias;
};

/**
 * The products of an m x k A tile against a 4-bit packed n x k BT
 * tile (k = bt.cols, n = bt.rows): out[i*n + j] += dot(a[i], bt[j]),
 * accumulated mod 2^32 — the same sums the int8 tile_products gives on
 * the unpacked tile. Every A row is staged once into @p rows; each
 * nibble w + 8 is multiplied by A with an unsigned-by-signed byte
 * multiply-add, then 8 * sum(a[i]) is subtracted per row. BT is walked
 * four rows at a time with A's rows in register blocks inside. Never
 * reads past A's last byte or BT's last row.
 */
void tile_products(const std::int8_t *a, const lut::PackedTile &bt,
                   std::int32_t *out, std::size_t m, PackedRows &rows);

/**
 * Evaluate @p table at @p n doubles: y[i] = table.evaluate(x[i]),
 * bit for bit, for every finite x (in-place, y == x, is allowed).
 */
void pwl_span(const lut::PwlTable &table, const double *x, std::size_t n,
              double *y);

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
 * run_span consumes: the im2col patch bytes, with the per-run
 * layer-geometry branching hoisted out. The inner loop is fixed-width
 * loads/stores specialized per run length, roughly an order of
 * magnitude cheaper than a per-run clip-and-memcpy walk for the
 * 3-byte runs a 3x3 conv produces.
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
