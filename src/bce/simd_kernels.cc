#include "simd_kernels.hh"

#include <algorithm>
#include <cstring>

#include "sim/cpuid.hh"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define BFREE_X86_KERNELS 1
#endif

namespace bfree::bce::simd {

namespace {

/**
 * Blocked scalar tally over packed micro-op deltas. Two u64
 * accumulators hold the four byte fields in 16-bit windows (lookups
 * and adds in `lo`, shifts and cycles in `hi`); each window can absorb
 * at most 256 additions of a <=255 field before it could carry into
 * its neighbour, so the block spills to the 64-bit totals every 256
 * entries.
 */
struct TallyBlock
{
    static constexpr unsigned block = 256;

    std::uint64_t lo = 0, hi = 0;
    unsigned n = 0;

    void
    add(std::uint32_t d, SpanSums &s)
    {
        lo += d & 0x00FF00FFu;
        hi += (d >> 8) & 0x00FF00FFu;
        if (++n == block)
            spill(s);
    }

    void
    spill(SpanSums &s)
    {
        s.lookups += lo & 0xFFFFu;
        s.adds += (lo >> 16) & 0xFFFFu;
        s.shifts += hi & 0xFFFFu;
        s.cycles += (hi >> 16) & 0xFFFFu;
        lo = hi = 0;
        n = 0;
    }
};

/**
 * Scalar conv-span loop over the table planes: the reference every
 * vector level reproduces, and the whole span for tables the fold
 * cannot serve.
 */
SpanSums
span_scalar(const lut::DatapathTable &t, const std::int8_t *a,
            const std::int8_t *b, std::size_t len, bool clamp)
{
    const std::int32_t half = t.half();
    const std::int32_t *prod = t.products();
    const std::uint32_t *delta = t.deltas();
    const bool exact = t.productsExact();

    SpanSums s;
    std::uint32_t acc = 0;
    TallyBlock tb;
    for (std::size_t i = 0; i < len; ++i) {
        std::int32_t w = a[i];
        std::int32_t x = b[i];
        if (clamp) {
            w = std::clamp(w, -half, half - 1);
            x = std::clamp(x, -half, half - 1);
        }
        const std::size_t idx = t.index(w, x);
        acc += static_cast<std::uint32_t>(exact ? w * x : prod[idx]);
        tb.add(delta[idx], s);
    }
    tb.spill(s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/** Magnitude byte of an int8 operand (abs(-128) reads 128). */
inline std::uint8_t
magnitude(std::int8_t v)
{
    return static_cast<std::uint8_t>(v < 0 ? -v : v);
}

/** Column-feature block geometry (see lut::ColumnFeatures). */
constexpr std::size_t block_rows = lut::ColumnFeatures::block_rows;

/**
 * Fold steps a vector level accumulates in int32 lanes before widening
 * to u64: one step adds <= 2 * 2 * 126 * 126 = 63504 to a lane.
 */
constexpr unsigned fold_spill_steps = 256;

/**
 * The class features of every magnitude byte packed one per byte,
 * p | o << 8 | l << 16 | z << 24.
 */
constexpr std::array<std::uint32_t, 256> packed_features = [] {
    using T = lut::DatapathTable;
    std::array<std::uint32_t, 256> r{};
    for (unsigned u = 0; u < 256; ++u) {
        const unsigned cls =
            T::pair_type_class[T::nibble_type[u >> 4] * 5u
                               + T::nibble_type[u & 0xF]];
        r[u] = T::class_feature_p[cls]
               | std::uint32_t{T::class_feature_o[cls]} << 8
               | std::uint32_t{T::class_feature_l[cls]} << 16
               | std::uint32_t{T::class_feature_z[cls]} << 24;
    }
    return r;
}();

/** Columns one scalar feature block covers (the widest vector step). */
constexpr std::size_t scalar_chunk = 64;

/**
 * Classify columns [b0, b0 + w) of rows [r0, r1) of the row-major
 * matrix @p m (@p cols wide) and add their packed features into
 * @p packed, one u32 per column (each byte sum stays <= 126). Returns
 * the largest magnitude it met.
 */
std::uint8_t
pack_features(const std::int8_t *m, std::size_t cols, std::size_t r0,
              std::size_t r1, std::size_t b0, std::size_t w,
              std::uint32_t *packed)
{
    std::uint8_t mx = 0;
    for (std::size_t r = r0; r < r1; ++r) {
        const std::int8_t *src = m + r * cols + b0;
        for (std::size_t c = 0; c < w; ++c) {
            const std::uint8_t u = magnitude(src[c]);
            packed[c] += packed_features[u];
            mx = std::max(mx, u);
        }
    }
    return mx;
}

/** Split @p w packed column sums into the four feature rows at @p dst,
 *  @p stride bytes apart. */
void
unpack_features(const std::uint32_t *packed, std::size_t w,
                std::uint8_t *dst, std::size_t stride)
{
    for (unsigned f = 0; f < 4; ++f)
        for (std::size_t c = 0; c < w; ++c)
            dst[f * stride + c] =
                static_cast<std::uint8_t>(packed[c] >> (8 * f));
}

/**
 * Scalar column-feature pass over columns [c0, cols), the padding
 * columns up to the stride written 0. Returns the largest magnitude
 * it met.
 */
std::uint32_t
column_features_scalar(const std::int8_t *m, std::size_t rows,
                       std::size_t cols, std::size_t c0,
                       std::uint8_t *sums)
{
    const std::size_t stride = lut::ColumnFeatures::stride(cols);
    std::uint8_t mx = 0;
    std::uint32_t packed[scalar_chunk];
    for (std::size_t r0 = 0; r0 < rows; r0 += block_rows) {
        const std::size_t r1 = std::min(rows, r0 + block_rows);
        std::uint8_t *block = sums + 4 * (r0 / block_rows) * stride;
        for (std::size_t b0 = c0; b0 < stride; b0 += scalar_chunk) {
            const std::size_t w = std::min(scalar_chunk, stride - b0);
            std::fill(packed, packed + w, 0u);
            if (b0 < cols)
                mx = std::max(mx, pack_features(m, cols, r0, r1, b0,
                                                std::min(w, cols - b0),
                                                packed));
            unpack_features(packed, w, block + b0, stride);
        }
    }
    return mx;
}

/**
 * Dot product of two 8-byte words of block sums (every byte <= 126)
 * in scalar registers. Reversing y's bytes lines lane i of x's 16-bit
 * lanes up with lane 3 - i of y's, so coefficient 3 of the u64 product
 * (bits 48..63) is a four-term dot product; no coefficient exceeds
 * 4 * 126^2 < 2^16, so none carries into the next.
 */
inline std::uint64_t
dot8_swar(std::uint64_t x, std::uint64_t y)
{
    constexpr std::uint64_t lanes = 0x00FF00FF00FF00FFull;
    const std::uint64_t ry = __builtin_bswap64(y);
    return ((x & lanes) * (ry >> 8 & lanes) >> 48)
           + ((x >> 8 & lanes) * (ry & lanes) >> 48);
}

/**
 * Scalar tile fold over A's columns [c0, k): per block of A rows and
 * 64-column chunk, the four byte sums of a column are accumulated
 * packed in one u32 (each <= 126), split into feature rows padded with
 * zeros to whole words, and folded against every BT block eight
 * columns per multiply. Accumulates into @p s; returns the largest A
 * magnitude it met.
 */
std::uint32_t
fold_tile_scalar(const std::int8_t *a, std::size_t m, std::size_t k,
                 std::size_t c0, const lut::ColumnFeatures &bt,
                 FeatureSums &s)
{
    const std::size_t stride = lut::ColumnFeatures::stride(k);
    const std::size_t nb = bt.blocks();
    std::uint64_t *const total[4] = {&s.p, &s.o, &s.l, &s.z};
    std::uint8_t mx = 0;
    std::uint32_t packed[scalar_chunk];
    std::uint8_t fa[4 * scalar_chunk];
    for (std::size_t r0 = 0; r0 < m; r0 += block_rows) {
        const std::size_t r1 = std::min(m, r0 + block_rows);
        for (std::size_t b0 = c0; b0 < k; b0 += scalar_chunk) {
            const std::size_t w = std::min(scalar_chunk, k - b0);
            const std::size_t padded = (w + 7) / 8 * 8;
            std::fill(packed, packed + padded, 0u);
            mx = std::max(mx, pack_features(a, k, r0, r1, b0, w, packed));
            unpack_features(packed, padded, fa, scalar_chunk);
            const std::uint8_t *y = bt.sums.data() + b0;
            for (std::size_t jb = 0; jb < nb; ++jb, y += 4 * stride) {
                for (unsigned f = 0; f < 4; ++f) {
                    std::uint64_t acc = 0;
                    for (std::size_t t = 0; t < padded; t += 8) {
                        std::uint64_t wx, wy;
                        std::memcpy(&wx, fa + f * scalar_chunk + t, 8);
                        std::memcpy(&wy, y + f * stride + t, 8);
                        acc += dot8_swar(wx, wy);
                    }
                    *total[f] += acc;
                }
            }
        }
    }
    return mx;
}

void
tile_products_scalar(const std::int8_t *a, const std::int8_t *bt,
                     std::int32_t *out, std::size_t m, std::size_t k,
                     std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::uint32_t acc = static_cast<std::uint32_t>(out[i * n + j]);
            for (std::size_t t = 0; t < k; ++t)
                acc += static_cast<std::uint32_t>(
                    std::int32_t{a[i * k + t]} * bt[j * k + t]);
            out[i * n + j] = static_cast<std::int32_t>(acc);
        }
    }
}

/**
 * Copy A row @p ai (@p k values) into @p row, zero-padded to @p padded
 * values, and return -8 * sum(ai) mod 2^32: the per-row term that
 * turns the offset-nibble sums of a packed tile into the int8 product.
 */
std::uint32_t
stage_packed_row(const std::int8_t *ai, std::size_t k, std::size_t padded,
                 std::int8_t *row)
{
    std::copy(ai, ai + k, row);
    std::fill(row + k, row + padded, std::int8_t{0});
    std::uint32_t sum = 0;
    for (std::size_t t = 0; t < k; ++t)
        sum += static_cast<std::uint32_t>(std::int32_t{ai[t]});
    return 0u - 8u * sum;
}

/**
 * Scalar packed-tile products: per group of packed bytes (64, or 32 in
 * a trailing half group) the low nibbles meet the group's first run
 * of A and the high nibbles the run right after it (see
 * lut::PackedTile).
 */
void
tile_products_packed_scalar(const std::int8_t *a, const lut::PackedTile &bt,
                            std::int32_t *out, std::size_t m,
                            std::int8_t *row)
{
    const std::size_t k = bt.cols, n = bt.rows;
    const std::size_t rb = lut::PackedTile::rowBytes(k);
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t bias = stage_packed_row(a + i * k, k, 2 * rb, row);
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint8_t *b = bt.row(j);
            std::uint32_t acc = bias;
            for (std::size_t s = 0; s < rb; s += 64) {
                const std::size_t half = std::min<std::size_t>(64, rb - s);
                const std::int8_t *lo = row + 2 * s;
                const std::int8_t *hi = lo + half;
                for (std::size_t x = 0; x < half; ++x)
                    acc += static_cast<std::uint32_t>(
                        (b[s + x] & 0xF) * lo[x] + (b[s + x] >> 4) * hi[x]);
            }
            out[i * n + j] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(out[i * n + j]) + acc);
        }
    }
}

#ifdef BFREE_X86_KERNELS

// The pair_type_class compression split into two 16-lane pshufb
// tables (indices 0..15 and 16..24); derived from the canonical array
// so the in-register classifier can never drift from the scalar one.
constexpr std::array<std::uint8_t, 16>
id25_lo_table()
{
    std::array<std::uint8_t, 16> r{};
    for (unsigned i = 0; i < 16; ++i)
        r[i] = lut::DatapathTable::pair_type_class[i];
    return r;
}

constexpr std::array<std::uint8_t, 16>
id25_hi_table()
{
    std::array<std::uint8_t, 16> r{};
    for (unsigned i = 16; i < 25; ++i)
        r[i - 16] = lut::DatapathTable::pair_type_class[i];
    return r;
}

constexpr std::array<std::uint8_t, 16> id25_lo = id25_lo_table();
constexpr std::array<std::uint8_t, 16> id25_hi = id25_hi_table();

/**
 * In-register operand classifier: one CLASSIFY expands a vector of
 * int8 operands into their structural classes (0..14) per byte, the
 * exact vector analogue of DatapathTable::operand_class(|v|).
 *
 *   u  = abs(v)                  (abs(-128) wraps to 0x80 = |+128|)
 *   t  = nibble_type[u.lo4], nibble_type[u.hi4]   (pshufb)
 *   s  = t_hi * 5 + t_lo         (t_hi + (t_hi << 2) + t_lo; both
 *                                 types <= 4, so s <= 24 with no
 *                                 cross-byte carry under the 16-bit
 *                                 shift)
 *   cls = pair_type_class[s]     (two pshufbs blended on s > 15;
 *                                 pshufb zeroes lanes whose index
 *                                 byte went negative after the -16)
 *
 * Implemented as macros, not helpers: lambdas and callees inside a
 * target("...")-attributed function do not inherit the attribute, and
 * gcc refuses to inline always_inline intrinsics across that
 * boundary.
 */
#define BFREE_CLASSIFY_CONSTS_256                                        \
    const __m256i kT4 =                                                  \
        _mm256_broadcastsi128_si256(_mm_loadu_si128(                     \
            reinterpret_cast<const __m128i *>(                           \
                lut::DatapathTable::nibble_type.data())));               \
    const __m256i kId25Lo = _mm256_broadcastsi128_si256(_mm_loadu_si128( \
        reinterpret_cast<const __m128i *>(id25_lo.data())));             \
    const __m256i kId25Hi = _mm256_broadcastsi128_si256(_mm_loadu_si128( \
        reinterpret_cast<const __m128i *>(id25_hi.data())));             \
    const __m256i kNib = _mm256_set1_epi8(0x0F);                         \
    const __m256i k15 = _mm256_set1_epi8(15);                            \
    const __m256i k16 = _mm256_set1_epi8(16)

#define BFREE_CLASSIFY_256(v, cls)                                       \
    do {                                                                 \
        const __m256i u_ = _mm256_abs_epi8(v);                           \
        const __m256i lo_ = _mm256_and_si256(u_, kNib);                  \
        const __m256i hi_ =                                              \
            _mm256_and_si256(_mm256_srli_epi16(u_, 4), kNib);            \
        const __m256i tl_ = _mm256_shuffle_epi8(kT4, lo_);               \
        const __m256i th_ = _mm256_shuffle_epi8(kT4, hi_);               \
        const __m256i s_ = _mm256_add_epi8(                              \
            _mm256_add_epi8(                                             \
                th_, _mm256_slli_epi16(_mm256_and_si256(th_, kNib), 2)), \
            tl_);                                                        \
        const __m256i rlo_ = _mm256_shuffle_epi8(kId25Lo, s_);           \
        const __m256i rhi_ =                                             \
            _mm256_shuffle_epi8(kId25Hi, _mm256_sub_epi8(s_, k16));      \
        const __m256i m_ = _mm256_cmpgt_epi8(s_, k15);                   \
        (cls) = _mm256_blendv_epi8(rlo_, rhi_, m_);                      \
    } while (0)

#define BFREE_CLASSIFY_CONSTS_512                                        \
    const __m512i kT4 = _mm512_broadcast_i32x4(_mm_loadu_si128(          \
        reinterpret_cast<const __m128i *>(                               \
            lut::DatapathTable::nibble_type.data())));                   \
    const __m512i kId25Lo = _mm512_broadcast_i32x4(_mm_loadu_si128(      \
        reinterpret_cast<const __m128i *>(id25_lo.data())));             \
    const __m512i kId25Hi = _mm512_broadcast_i32x4(_mm_loadu_si128(      \
        reinterpret_cast<const __m128i *>(id25_hi.data())));             \
    const __m512i kNib = _mm512_set1_epi8(0x0F);                         \
    const __m512i k15 = _mm512_set1_epi8(15);                            \
    const __m512i k16 = _mm512_set1_epi8(16)

#define BFREE_CLASSIFY_512(v, cls)                                       \
    do {                                                                 \
        const __m512i u_ = _mm512_abs_epi8(v);                           \
        const __m512i lo_ = _mm512_and_si512(u_, kNib);                  \
        const __m512i hi_ =                                              \
            _mm512_and_si512(_mm512_srli_epi16(u_, 4), kNib);            \
        const __m512i tl_ = _mm512_shuffle_epi8(kT4, lo_);               \
        const __m512i th_ = _mm512_shuffle_epi8(kT4, hi_);               \
        const __m512i s_ = _mm512_add_epi8(                              \
            _mm512_add_epi8(                                             \
                th_, _mm512_slli_epi16(_mm512_and_si512(th_, kNib), 2)), \
            tl_);                                                        \
        const __m512i rlo_ = _mm512_shuffle_epi8(kId25Lo, s_);           \
        const __m512i rhi_ =                                             \
            _mm512_shuffle_epi8(kId25Hi, _mm512_sub_epi8(s_, k16));      \
        const __mmask64 m_ = _mm512_cmpgt_epi8_mask(s_, k15);            \
        (cls) = _mm512_mask_blend_epi8(m_, rlo_, rhi_);                  \
    } while (0)

/** The four per-class feature shuffle tables (p, o, l, z). */
#define BFREE_FEATURE_CONST_256(name, feature)                           \
    const __m256i name = _mm256_broadcastsi128_si256(_mm_loadu_si128(    \
        reinterpret_cast<const __m128i *>(                               \
            lut::DatapathTable::feature.data())))

#define BFREE_FEATURE_CONSTS_256                                         \
    BFREE_FEATURE_CONST_256(kFP, class_feature_p);                       \
    BFREE_FEATURE_CONST_256(kFO, class_feature_o);                       \
    BFREE_FEATURE_CONST_256(kFL, class_feature_l);                       \
    BFREE_FEATURE_CONST_256(kFZ, class_feature_z)

#define BFREE_FEATURE_CONST_512(name, feature)                           \
    const __m512i name = _mm512_broadcast_i32x4(_mm_loadu_si128(         \
        reinterpret_cast<const __m128i *>(                               \
            lut::DatapathTable::feature.data())))

#define BFREE_FEATURE_CONSTS_512                                         \
    BFREE_FEATURE_CONST_512(kFP, class_feature_p);                       \
    BFREE_FEATURE_CONST_512(kFO, class_feature_o);                       \
    BFREE_FEATURE_CONST_512(kFL, class_feature_l);                       \
    BFREE_FEATURE_CONST_512(kFZ, class_feature_z)

/**
 * Add the class features of one row vector @p v to the byte-lane block
 * sums fp, fo, fl, fz and its magnitudes into the running maximum mx
 * (the column passes and the tile folds share it).
 */
#define BFREE_ADD_FEATURES_256(v)                                        \
    do {                                                                 \
        __m256i cls_;                                                    \
        BFREE_CLASSIFY_256(v, cls_);                                     \
        fp = _mm256_add_epi8(fp, _mm256_shuffle_epi8(kFP, cls_));        \
        fo = _mm256_add_epi8(fo, _mm256_shuffle_epi8(kFO, cls_));        \
        fl = _mm256_add_epi8(fl, _mm256_shuffle_epi8(kFL, cls_));        \
        fz = _mm256_add_epi8(fz, _mm256_shuffle_epi8(kFZ, cls_));        \
        mx = _mm256_max_epu8(mx, _mm256_abs_epi8(v));                    \
    } while (0)

#define BFREE_ADD_FEATURES_512(v)                                        \
    do {                                                                 \
        __m512i cls_;                                                    \
        BFREE_CLASSIFY_512(v, cls_);                                     \
        fp = _mm512_add_epi8(fp, _mm512_shuffle_epi8(kFP, cls_));        \
        fo = _mm512_add_epi8(fo, _mm512_shuffle_epi8(kFO, cls_));        \
        fl = _mm512_add_epi8(fl, _mm512_shuffle_epi8(kFL, cls_));        \
        fz = _mm512_add_epi8(fz, _mm512_shuffle_epi8(kFZ, cls_));        \
        mx = _mm512_max_epu8(mx, _mm512_abs_epi8(v));                    \
    } while (0)

/** Mod-2^32 sum of eight u32 lanes (the wrapping product reduce). */
__attribute__((target("avx2"))) std::uint32_t
wsum_u32x8(__m256i v)
{
    __m128i r = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    r = _mm_add_epi32(r, _mm_srli_si128(r, 8));
    r = _mm_add_epi32(r, _mm_srli_si128(r, 4));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(r));
}

// GCC 12's -Wmaybe-uninitialized fires through the self-initialized
// _mm*_undefined_*() the AVX-512 intrinsic headers pass as the (never
// read, mask = -1) masked-fallback operand; known false positive
// (GCC PR105593), suppressed for the 512-bit kernels only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

/** Fold the feature dot products into SpanSums micro-op tallies. */
void
fold_features(const FeatureSums &f, std::uint32_t cyclesFactor,
              SpanSums &s)
{
    s.lookups += f.l;
    s.shifts += f.p - f.o;
    s.adds += f.p - f.z;
    s.cycles += cyclesFactor * f.p;
}

// Per-iteration ceiling on a 16-bit feature accumulator lane: each
// maddubs adds two products of <=2*2, so <=8 per lane per step; spill
// every 4000 steps keeps lanes <=32000 < 2^15.
constexpr std::size_t sep_spill_block = 4000;

/**
 * Reduce four madd-widened u32x8 feature sums in one hadd tree instead
 * of four scalarized lane walks: two hadds interleave [P.. O..] and
 * [L.. Z..], a third yields [P O L Z | P O L Z], and the cross-lane
 * add leaves one dword per feature. Lane bound: spilled 16-bit lanes
 * stay under 2^15 and the tree sums at most eight of them, far from
 * u32 overflow. The serialized vpextrd chain this replaces dominated
 * short spans — the epilogue runs once per call and production spans
 * are a few hundred elements.
 */
__attribute__((target("avx2"))) __m128i
hsum4_u32x8(__m256i p, __m256i o, __m256i l, __m256i z)
{
    const __m256i po = _mm256_hadd_epi32(p, o);
    const __m256i lz = _mm256_hadd_epi32(l, z);
    const __m256i polz = _mm256_hadd_epi32(po, lz);
    return _mm_add_epi32(_mm256_castsi256_si128(polz),
                         _mm256_extracti128_si256(polz, 1));
}

__attribute__((target("avx2"))) void
reduce_features_u32x8(__m256i p, __m256i o, __m256i l, __m256i z,
                      FeatureSums &f)
{
    const __m128i r = hsum4_u32x8(p, o, l, z);
    f.p += static_cast<std::uint32_t>(_mm_extract_epi32(r, 0));
    f.o += static_cast<std::uint32_t>(_mm_extract_epi32(r, 1));
    f.l += static_cast<std::uint32_t>(_mm_extract_epi32(r, 2));
    f.z += static_cast<std::uint32_t>(_mm_extract_epi32(r, 3));
}

/**
 * AVX2 histogram fold: 32 operand pairs per step, no table access in
 * the loop. Products via widening madd (exact: |a*b| <= 2^14 fits
 * int16 pairs, and wrapped mod-2^32 sums match the scalar u32
 * accumulation); micro-op tallies via the factored class-feature fold
 * against the build-verified pairDeltas collapse.
 *
 * 4-bit spans take the same fold. With @p clamp each operand byte is
 * clamped to [-half, half - 1] before it is classified and multiplied.
 * The ragged tail (len % 32) is one
 * more step over a zero-filled copy: zero is class 0, whose features
 * and product are all 0, so the padding lanes add nothing to any sum.
 */
__attribute__((target("avx2"))) SpanSums
span_avx2_hist(const lut::DatapathTable &t, const std::int8_t *a,
               const std::int8_t *b, std::size_t len, bool clamp)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_256;
    BFREE_FEATURE_CONSTS_256;
    const __m256i kOne16 = _mm256_set1_epi16(1);
    // Read only by 4-bit spans: the clamp range [kMin, kClampMax].
    const __m256i kMin = _mm256_set1_epi8(static_cast<char>(-t.half()));
    const __m256i kClampMax =
        _mm256_set1_epi8(static_cast<char>(t.half() - 1));

    __m256i accP = _mm256_setzero_si256();
    __m256i sP = accP, sO = accP, sL = accP, sZ = accP;
    FeatureSums f;
    std::uint32_t acc = 0;
    std::size_t sinceSpill = 0;

#define BFREE_SEP_SPILL_256()                                            \
    do {                                                                 \
        reduce_features_u32x8(_mm256_madd_epi16(sP, kOne16),             \
                              _mm256_madd_epi16(sO, kOne16),             \
                              _mm256_madd_epi16(sL, kOne16),             \
                              _mm256_madd_epi16(sZ, kOne16), f);         \
        sP = sO = sL = sZ = _mm256_setzero_si256();                      \
        sinceSpill = 0;                                                  \
    } while (0)

    for (std::size_t i = 0; i < len; i += 32) {
        __m256i va, vb;
        if (len - i >= 32) {
            va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + i));
            vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(b + i));
        } else {
            alignas(32) std::int8_t ta[32] = {}, tb[32] = {};
            std::memcpy(ta, a + i, len - i);
            std::memcpy(tb, b + i, len - i);
            va = _mm256_load_si256(reinterpret_cast<const __m256i *>(ta));
            vb = _mm256_load_si256(reinterpret_cast<const __m256i *>(tb));
        }
        if (clamp) {
            va = _mm256_min_epi8(_mm256_max_epi8(va, kMin), kClampMax);
            vb = _mm256_min_epi8(_mm256_max_epi8(vb, kMin), kClampMax);
        }

        const __m256i a0 =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(va));
        const __m256i a1 =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(va, 1));
        const __m256i b0 =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(vb));
        const __m256i b1 =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(vb, 1));
        accP = _mm256_add_epi32(accP, _mm256_madd_epi16(a0, b0));
        accP = _mm256_add_epi32(accP, _mm256_madd_epi16(a1, b1));

        __m256i ca, cb;
        BFREE_CLASSIFY_256(va, ca);
        BFREE_CLASSIFY_256(vb, cb);
        sP = _mm256_add_epi16(
            sP, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFP, ca),
                                     _mm256_shuffle_epi8(kFP, cb)));
        sO = _mm256_add_epi16(
            sO, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFO, ca),
                                     _mm256_shuffle_epi8(kFO, cb)));
        sL = _mm256_add_epi16(
            sL, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFL, ca),
                                     _mm256_shuffle_epi8(kFL, cb)));
        sZ = _mm256_add_epi16(
            sZ, _mm256_maddubs_epi16(_mm256_shuffle_epi8(kFZ, ca),
                                     _mm256_shuffle_epi8(kFZ, cb)));
        if (++sinceSpill == sep_spill_block)
            BFREE_SEP_SPILL_256();
    }
    BFREE_SEP_SPILL_256();
#undef BFREE_SEP_SPILL_256
    fold_features(f, t.cyclesFactor(), s);
    acc += wsum_u32x8(accP);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/**
 * AVX-512 histogram fold: 64 pairs per step, same factored fold and
 * clamp handling as the AVX2 variant in 512-bit lanes (BW byte
 * shuffles, mask-blended class compression). The ragged tail is one
 * more step whose masked loads zero the lanes past len (and never
 * touch their memory).
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) SpanSums
span_avx512_hist(const lut::DatapathTable &t, const std::int8_t *a,
                 const std::int8_t *b, std::size_t len, bool clamp)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_512;
    BFREE_FEATURE_CONSTS_512;
    const __m512i kOne16 = _mm512_set1_epi16(1);
    // Read only by 4-bit spans: the clamp range [kMin, kClampMax].
    const __m512i kMin = _mm512_set1_epi8(static_cast<char>(-t.half()));
    const __m512i kClampMax =
        _mm512_set1_epi8(static_cast<char>(t.half() - 1));

    __m512i accP = _mm512_setzero_si512();
    __m512i sP = accP, sO = accP, sL = accP, sZ = accP;
    FeatureSums f;
    std::uint32_t acc = 0;
    std::size_t sinceSpill = 0;

// Fold one madd-widened 512-bit sum onto its 256-bit halves.
#define BFREE_FOLD_512(v)                                                \
    _mm256_add_epi32(                                                    \
        _mm512_castsi512_si256(_mm512_madd_epi16(v, kOne16)),            \
        _mm512_extracti64x4_epi64(_mm512_madd_epi16(v, kOne16), 1))

#define BFREE_SEP_SPILL_512()                                            \
    do {                                                                 \
        reduce_features_u32x8(BFREE_FOLD_512(sP), BFREE_FOLD_512(sO),    \
                              BFREE_FOLD_512(sL), BFREE_FOLD_512(sZ),    \
                              f);                                        \
        sP = sO = sL = sZ = _mm512_setzero_si512();                      \
        sinceSpill = 0;                                                  \
    } while (0)

    for (std::size_t i = 0; i < len; i += 64) {
        const __mmask64 lanes = len - i >= 64
                                    ? ~__mmask64{0}
                                    : (__mmask64{1} << (len - i)) - 1;
        __m512i va = _mm512_maskz_loadu_epi8(lanes, a + i);
        __m512i vb = _mm512_maskz_loadu_epi8(lanes, b + i);
        if (clamp) {
            va = _mm512_min_epi8(_mm512_max_epi8(va, kMin), kClampMax);
            vb = _mm512_min_epi8(_mm512_max_epi8(vb, kMin), kClampMax);
        }

        const __m512i a0 =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(va));
        const __m512i a1 =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(va, 1));
        const __m512i b0 =
            _mm512_cvtepi8_epi16(_mm512_castsi512_si256(vb));
        const __m512i b1 =
            _mm512_cvtepi8_epi16(_mm512_extracti64x4_epi64(vb, 1));
        accP = _mm512_add_epi32(accP, _mm512_madd_epi16(a0, b0));
        accP = _mm512_add_epi32(accP, _mm512_madd_epi16(a1, b1));

        __m512i ca, cb;
        BFREE_CLASSIFY_512(va, ca);
        BFREE_CLASSIFY_512(vb, cb);
        sP = _mm512_add_epi16(
            sP, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFP, ca),
                                     _mm512_shuffle_epi8(kFP, cb)));
        sO = _mm512_add_epi16(
            sO, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFO, ca),
                                     _mm512_shuffle_epi8(kFO, cb)));
        sL = _mm512_add_epi16(
            sL, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFL, ca),
                                     _mm512_shuffle_epi8(kFL, cb)));
        sZ = _mm512_add_epi16(
            sZ, _mm512_maddubs_epi16(_mm512_shuffle_epi8(kFZ, ca),
                                     _mm512_shuffle_epi8(kFZ, cb)));
        if (++sinceSpill == sep_spill_block)
            BFREE_SEP_SPILL_512();
    }
    BFREE_SEP_SPILL_512();
#undef BFREE_SEP_SPILL_512
#undef BFREE_FOLD_512
    fold_features(f, t.cyclesFactor(), s);
    acc += wsum_u32x8(
        _mm256_add_epi32(_mm512_castsi512_si256(accP),
                         _mm512_extracti64x4_epi64(accP, 1)));
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/** Largest of 32 unsigned bytes. */
__attribute__((target("avx2"))) std::uint32_t
hmax_u8x32(__m256i v)
{
    __m128i x = _mm_max_epu8(_mm256_castsi256_si128(v),
                             _mm256_extracti128_si256(v, 1));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 8));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 4));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 2));
    x = _mm_max_epu8(x, _mm_srli_si128(x, 1));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(x)) & 0xFF;
}

/**
 * AVX2 column-feature pass: 32 columns per step, each block's rows
 * summed in byte lanes and stored as they are. The ragged column tail
 * (cols % 32) and the padding take the scalar pass.
 */
__attribute__((target("avx2"))) std::uint32_t
column_features_avx2(const std::int8_t *m, std::size_t rows,
                     std::size_t cols, std::uint8_t *sums)
{
    BFREE_CLASSIFY_CONSTS_256;
    BFREE_FEATURE_CONSTS_256;
    const std::size_t stride = lut::ColumnFeatures::stride(cols);
    const std::size_t cv = cols / 32 * 32;
    __m256i mx = _mm256_setzero_si256();
    for (std::size_t r0 = 0; r0 < rows; r0 += block_rows) {
        const std::size_t r1 = std::min(rows, r0 + block_rows);
        std::uint8_t *block = sums + 4 * (r0 / block_rows) * stride;
        for (std::size_t c0 = 0; c0 < cv; c0 += 32) {
            __m256i fp = _mm256_setzero_si256();
            __m256i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(m + r * cols + c0));
                BFREE_ADD_FEATURES_256(v);
            }
            std::uint8_t *dst = block + c0;
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst), fp);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst + stride), fo);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst + 2 * stride), fl);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(dst + 3 * stride), fz);
        }
    }
    return std::max(hmax_u8x32(mx),
                    column_features_scalar(m, rows, cols, cv, sums));
}

/** Sum of eight u32 lanes, widened to u64. */
__attribute__((target("avx2"))) std::uint64_t
sum_u32x8(__m256i v)
{
    alignas(32) std::uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
    std::uint64_t sum = 0;
    for (const std::uint32_t x : lanes)
        sum += x;
    return sum;
}

/**
 * AVX2 tile fold: A's block rows summed in byte lanes 32 columns at a
 * time, then one maddubs per feature against each BT block (both byte
 * sums are <= 126, so each int16 pair sum stays <= 31752), widened to
 * int32 lanes by madd and to u64 every fold_spill_steps steps. The
 * ragged column tail (k % 32) takes the scalar fold.
 */
__attribute__((target("avx2"))) std::uint32_t
fold_tile_avx2(const std::int8_t *a, std::size_t m, std::size_t k,
               const lut::ColumnFeatures &bt, FeatureSums &s)
{
    BFREE_CLASSIFY_CONSTS_256;
    BFREE_FEATURE_CONSTS_256;
    const std::size_t stride = lut::ColumnFeatures::stride(k);
    const std::size_t nb = bt.blocks();
    const std::uint8_t *const sums = bt.sums.data();
    const std::size_t kv = k / 32 * 32;
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i accP = _mm256_setzero_si256();
    __m256i accO = accP, accL = accP, accZ = accP, mx = accP;
    unsigned steps = 0;
#define BFREE_FOLD_SPILL_256()                                           \
    do {                                                                 \
        s.p += sum_u32x8(accP);                                          \
        s.o += sum_u32x8(accO);                                          \
        s.l += sum_u32x8(accL);                                          \
        s.z += sum_u32x8(accZ);                                          \
        accP = accO = accL = accZ = _mm256_setzero_si256();              \
        steps = 0;                                                       \
    } while (0)
#define BFREE_FOLD_STEP_256(acc, fa, f)                                  \
    (acc) = _mm256_add_epi32(                                            \
        (acc), _mm256_madd_epi16(                                        \
                 _mm256_maddubs_epi16(                                   \
                     fa, _mm256_loadu_si256(                             \
                             reinterpret_cast<const __m256i *>(          \
                                 y + (f) * stride))),                    \
                 ones))
    for (std::size_t r0 = 0; r0 < m; r0 += block_rows) {
        const std::size_t r1 = std::min(m, r0 + block_rows);
        for (std::size_t c0 = 0; c0 < kv; c0 += 32) {
            __m256i fp = _mm256_setzero_si256();
            __m256i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const __m256i v = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(a + r * k + c0));
                BFREE_ADD_FEATURES_256(v);
            }
            const std::uint8_t *y = sums + c0;
            for (std::size_t jb = 0; jb < nb; ++jb, y += 4 * stride) {
                BFREE_FOLD_STEP_256(accP, fp, 0);
                BFREE_FOLD_STEP_256(accO, fo, 1);
                BFREE_FOLD_STEP_256(accL, fl, 2);
                BFREE_FOLD_STEP_256(accZ, fz, 3);
                if (++steps == fold_spill_steps)
                    BFREE_FOLD_SPILL_256();
            }
        }
    }
    BFREE_FOLD_SPILL_256();
#undef BFREE_FOLD_STEP_256
#undef BFREE_FOLD_SPILL_256
    return std::max(hmax_u8x32(mx), fold_tile_scalar(a, m, k, kv, bt, s));
}

/**
 * AVX2 tile products: row i of A is widened to int16 once, then four
 * BT rows per pass are widened 16 bytes at a time and madd-ed against
 * it (|a*b| <= 2^14, so each madd pair fits int32; the int32 lane sums
 * wrap exactly like the scalar u32 accumulation). The k % 16 tail is
 * a scalar loop.
 */
__attribute__((target("avx2"))) void
tile_products_avx2(const std::int8_t *a, const std::int8_t *bt,
                   std::int32_t *out, std::size_t m, std::size_t k,
                   std::size_t n, std::int16_t *wide)
{
    const std::size_t kv = k / 16 * 16;
    const auto tail = [&](const std::int8_t *ai, const std::int8_t *bj) {
        std::uint32_t s = 0;
        for (std::size_t t = kv; t < k; ++t)
            s += static_cast<std::uint32_t>(std::int32_t{ai[t]} * bj[t]);
        return s;
    };
#define BFREE_TILE_STEP_256(acc, row)                                    \
    (acc) = _mm256_add_epi32(                                            \
        (acc), _mm256_madd_epi16(                                        \
                 av, _mm256_cvtepi8_epi16(_mm_loadu_si128(               \
                         reinterpret_cast<const __m128i *>((row) + t)))))
    for (std::size_t i = 0; i < m; ++i) {
        const std::int8_t *ai = a + i * k;
        for (std::size_t t = 0; t < kv; t += 16)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(wide + t),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(ai + t))));
        std::int32_t *oi = out + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::int8_t *b0 = bt + j * k, *b1 = b0 + k,
                              *b2 = b1 + k, *b3 = b2 + k;
            __m256i s0 = _mm256_setzero_si256();
            __m256i s1 = s0, s2 = s0, s3 = s0;
            for (std::size_t t = 0; t < kv; t += 16) {
                const __m256i av = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wide + t));
                BFREE_TILE_STEP_256(s0, b0);
                BFREE_TILE_STEP_256(s1, b1);
                BFREE_TILE_STEP_256(s2, b2);
                BFREE_TILE_STEP_256(s3, b3);
            }
            const __m128i tails = _mm_setr_epi32(
                static_cast<int>(tail(ai, b0)), static_cast<int>(tail(ai, b1)),
                static_cast<int>(tail(ai, b2)), static_cast<int>(tail(ai, b3)));
            __m128i *dst = reinterpret_cast<__m128i *>(oi + j);
            _mm_storeu_si128(
                dst, _mm_add_epi32(_mm_loadu_si128(dst),
                                   _mm_add_epi32(hsum4_u32x8(s0, s1, s2, s3),
                                                 tails)));
        }
        for (; j < n; ++j) {
            const std::int8_t *b0 = bt + j * k;
            __m256i s0 = _mm256_setzero_si256();
            for (std::size_t t = 0; t < kv; t += 16) {
                const __m256i av = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(wide + t));
                BFREE_TILE_STEP_256(s0, b0);
            }
            oi[j] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(oi[j]) + wsum_u32x8(s0)
                + tail(ai, b0));
        }
    }
#undef BFREE_TILE_STEP_256
}

/**
 * AVX2 packed-tile products: four BT rows per pass; each 32-byte load
 * of packed weights splits into low and high nibbles, both meet their
 * A runs in one maddubs each (unsigned nibble x signed A, pair sums
 * <= 3840, so nothing saturates), and the int16 sums widen to int32
 * lanes by madd. A full group takes two loads, a half group one.
 */
__attribute__((target("avx2"))) void
tile_products_packed_avx2(const std::int8_t *a, const lut::PackedTile &bt,
                          std::int32_t *out, std::size_t m,
                          std::int8_t *row)
{
    const std::size_t k = bt.cols, n = bt.rows;
    const std::size_t rb = lut::PackedTile::rowBytes(k);
    const std::size_t full = rb / 64 * 64;
    const __m256i nib = _mm256_set1_epi8(0x0F);
    const __m256i ones = _mm256_set1_epi16(1);
#define BFREE_LOAD_256(p)                                                \
    _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p))
// Statement macros, not lambdas: a lambda inside a target("...")
// function does not inherit the attribute (see BFREE_CLASSIFY_256).
// The AVX-512 kernel reuses the 256-bit ones for its half group and
// undefines them.
#define BFREE_NIBBLE_DOT_256(dst, src, alo, ahi)                         \
    do {                                                                 \
        const __m256i x_ = BFREE_LOAD_256(src);                          \
        (dst) = _mm256_add_epi16(                                        \
            _mm256_maddubs_epi16(_mm256_and_si256(x_, nib), (alo)),      \
            _mm256_maddubs_epi16(                                        \
                _mm256_and_si256(_mm256_srli_epi16(x_, 4), nib), (ahi))); \
    } while (0)
#define BFREE_PACKED_STEP_256(acc, b)                                    \
    do {                                                                 \
        __m256i d0_, d1_;                                                \
        BFREE_NIBBLE_DOT_256(d0_, (b) + s, a0, a2);                      \
        BFREE_NIBBLE_DOT_256(d1_, (b) + s + 32, a1, a3);                 \
        (acc) = _mm256_add_epi32(                                        \
            (acc), _mm256_madd_epi16(_mm256_add_epi16(d0_, d1_), ones)); \
    } while (0)
#define BFREE_PACKED_HALF_256(acc, b)                                    \
    do {                                                                 \
        __m256i d_;                                                      \
        BFREE_NIBBLE_DOT_256(d_, (b) + full, h0, h1);                    \
        (acc) = _mm256_add_epi32((acc), _mm256_madd_epi16(d_, ones));    \
    } while (0)
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t bias = stage_packed_row(a + i * k, k, 2 * rb, row);
        const bool half = full < rb;
        const std::int8_t *hrow = row + 2 * full;
        std::int32_t *oi = out + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::uint8_t *b0 = bt.row(j), *b1 = bt.row(j + 1),
                               *b2 = bt.row(j + 2), *b3 = bt.row(j + 3);
            __m256i s0 = _mm256_setzero_si256();
            __m256i s1 = s0, s2 = s0, s3 = s0;
            for (std::size_t s = 0; s < full; s += 64) {
                const __m256i a0 = BFREE_LOAD_256(row + 2 * s);
                const __m256i a1 = BFREE_LOAD_256(row + 2 * s + 32);
                const __m256i a2 = BFREE_LOAD_256(row + 2 * s + 64);
                const __m256i a3 = BFREE_LOAD_256(row + 2 * s + 96);
                BFREE_PACKED_STEP_256(s0, b0);
                BFREE_PACKED_STEP_256(s1, b1);
                BFREE_PACKED_STEP_256(s2, b2);
                BFREE_PACKED_STEP_256(s3, b3);
            }
            if (half) {
                const __m256i h0 = BFREE_LOAD_256(hrow);
                const __m256i h1 = BFREE_LOAD_256(hrow + 32);
                BFREE_PACKED_HALF_256(s0, b0);
                BFREE_PACKED_HALF_256(s1, b1);
                BFREE_PACKED_HALF_256(s2, b2);
                BFREE_PACKED_HALF_256(s3, b3);
            }
            __m128i *dst = reinterpret_cast<__m128i *>(oi + j);
            _mm_storeu_si128(
                dst, _mm_add_epi32(
                         _mm_loadu_si128(dst),
                         _mm_add_epi32(hsum4_u32x8(s0, s1, s2, s3),
                                       _mm_set1_epi32(
                                           static_cast<int>(bias)))));
        }
        for (; j < n; ++j) {
            const std::uint8_t *b0 = bt.row(j);
            __m256i s0 = _mm256_setzero_si256();
            for (std::size_t s = 0; s < full; s += 64) {
                const __m256i a0 = BFREE_LOAD_256(row + 2 * s);
                const __m256i a1 = BFREE_LOAD_256(row + 2 * s + 32);
                const __m256i a2 = BFREE_LOAD_256(row + 2 * s + 64);
                const __m256i a3 = BFREE_LOAD_256(row + 2 * s + 96);
                BFREE_PACKED_STEP_256(s0, b0);
            }
            if (half) {
                const __m256i h0 = BFREE_LOAD_256(hrow);
                const __m256i h1 = BFREE_LOAD_256(hrow + 32);
                BFREE_PACKED_HALF_256(s0, b0);
            }
            oi[j] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(oi[j]) + wsum_u32x8(s0) + bias);
        }
    }
#undef BFREE_PACKED_STEP_256
}

/**
 * AVX-512 column-feature pass: the AVX2 pass at 64 columns per step,
 * the ragged column tail read through masked loads that zero the lanes
 * past cols (and never touch their memory); its zero features land in
 * the padding columns.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) std::uint32_t
column_features_avx512(const std::int8_t *m, std::size_t rows,
                       std::size_t cols, std::uint8_t *sums)
{
    BFREE_CLASSIFY_CONSTS_512;
    BFREE_FEATURE_CONSTS_512;
    const std::size_t stride = lut::ColumnFeatures::stride(cols);
    __m512i mx = _mm512_setzero_si512();
    for (std::size_t r0 = 0; r0 < rows; r0 += block_rows) {
        const std::size_t r1 = std::min(rows, r0 + block_rows);
        std::uint8_t *block = sums + 4 * (r0 / block_rows) * stride;
        for (std::size_t c0 = 0; c0 < cols; c0 += 64) {
            const std::size_t w = std::min<std::size_t>(64, cols - c0);
            const __mmask64 lanes =
                w == 64 ? ~__mmask64{0} : (__mmask64{1} << w) - 1;
            __m512i fp = _mm512_setzero_si512();
            __m512i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const __m512i v =
                    _mm512_maskz_loadu_epi8(lanes, m + r * cols + c0);
                BFREE_ADD_FEATURES_512(v);
            }
            std::uint8_t *dst = block + c0;
            _mm512_storeu_si512(dst, fp);
            _mm512_storeu_si512(dst + stride, fo);
            _mm512_storeu_si512(dst + 2 * stride, fl);
            _mm512_storeu_si512(dst + 3 * stride, fz);
        }
    }
    return hmax_u8x32(_mm256_max_epu8(_mm512_castsi512_si256(mx),
                                      _mm512_extracti64x4_epi64(mx, 1)));
}

/** Sum of sixteen u32 lanes, widened to u64. */
__attribute__((target("avx512f,avx512bw,avx512vl"))) std::uint64_t
sum_u32x16(__m512i v)
{
    const __m512i lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(v));
    const __m512i hi =
        _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(v, 1));
    return static_cast<std::uint64_t>(
        _mm512_reduce_add_epi64(_mm512_add_epi64(lo, hi)));
}

/**
 * AVX-512 tile fold: the AVX2 fold at 64 columns per step, the ragged
 * column tail read through masked loads; its zero lanes meet BT's zero
 * padding columns.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) std::uint32_t
fold_tile_avx512(const std::int8_t *a, std::size_t m, std::size_t k,
                 const lut::ColumnFeatures &bt, FeatureSums &s)
{
    BFREE_CLASSIFY_CONSTS_512;
    BFREE_FEATURE_CONSTS_512;
    const std::size_t stride = lut::ColumnFeatures::stride(k);
    const std::size_t nb = bt.blocks();
    const std::uint8_t *const sums = bt.sums.data();
    const __m512i ones = _mm512_set1_epi16(1);
    __m512i accP = _mm512_setzero_si512();
    __m512i accO = accP, accL = accP, accZ = accP, mx = accP;
    unsigned steps = 0;
#define BFREE_FOLD_SPILL_512()                                           \
    do {                                                                 \
        s.p += sum_u32x16(accP);                                         \
        s.o += sum_u32x16(accO);                                         \
        s.l += sum_u32x16(accL);                                         \
        s.z += sum_u32x16(accZ);                                         \
        accP = accO = accL = accZ = _mm512_setzero_si512();              \
        steps = 0;                                                       \
    } while (0)
#define BFREE_FOLD_STEP_512(acc, fa, f)                                  \
    (acc) = _mm512_add_epi32(                                            \
        (acc), _mm512_madd_epi16(                                        \
                 _mm512_maddubs_epi16(                                   \
                     fa, _mm512_loadu_si512(y + (f) * stride)),          \
                 ones))
    for (std::size_t r0 = 0; r0 < m; r0 += block_rows) {
        const std::size_t r1 = std::min(m, r0 + block_rows);
        for (std::size_t c0 = 0; c0 < k; c0 += 64) {
            const std::size_t w = std::min<std::size_t>(64, k - c0);
            const __mmask64 lanes =
                w == 64 ? ~__mmask64{0} : (__mmask64{1} << w) - 1;
            __m512i fp = _mm512_setzero_si512();
            __m512i fo = fp, fl = fp, fz = fp;
            for (std::size_t r = r0; r < r1; ++r) {
                const __m512i v =
                    _mm512_maskz_loadu_epi8(lanes, a + r * k + c0);
                BFREE_ADD_FEATURES_512(v);
            }
            const std::uint8_t *y = sums + c0;
            for (std::size_t jb = 0; jb < nb; ++jb, y += 4 * stride) {
                BFREE_FOLD_STEP_512(accP, fp, 0);
                BFREE_FOLD_STEP_512(accO, fo, 1);
                BFREE_FOLD_STEP_512(accL, fl, 2);
                BFREE_FOLD_STEP_512(accZ, fz, 3);
                if (++steps == fold_spill_steps)
                    BFREE_FOLD_SPILL_512();
            }
        }
    }
    BFREE_FOLD_SPILL_512();
#undef BFREE_FOLD_STEP_512
#undef BFREE_FOLD_SPILL_512
    return hmax_u8x32(_mm256_max_epu8(_mm512_castsi512_si256(mx),
                                      _mm512_extracti64x4_epi64(mx, 1)));
}

/**
 * AVX-512 tile products: the AVX2 scheme at 32 int16 lanes, with the
 * k % 32 tail as one more step whose masked BT loads zero the lanes
 * past k (the widened A row is zero-padded to match).
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
tile_products_avx512(const std::int8_t *a, const std::int8_t *bt,
                     std::int32_t *out, std::size_t m, std::size_t k,
                     std::size_t n, std::int16_t *wide)
{
    const std::size_t steps = (k + 31) / 32;
    const __mmask32 tailLanes =
        k % 32 == 0 ? ~__mmask32{0} : (__mmask32{1} << (k % 32)) - 1;
#define BFREE_TILE_LOAD_512(row, s)                                      \
    _mm512_cvtepi8_epi16(_mm256_maskz_loadu_epi8(                        \
        (s) + 1 == steps ? tailLanes : ~__mmask32{0}, (row) + (s) * 32))
#define BFREE_TILE_STEP_512(acc, row)                                    \
    (acc) = _mm512_add_epi32(                                            \
        (acc), _mm512_madd_epi16(av, BFREE_TILE_LOAD_512(row, s)))
#define BFREE_FOLD_TO_256(v)                                             \
    _mm256_add_epi32(_mm512_castsi512_si256(v),                          \
                     _mm512_extracti64x4_epi64(v, 1))
    for (std::size_t i = 0; i < m; ++i) {
        const std::int8_t *ai = a + i * k;
        for (std::size_t s = 0; s < steps; ++s)
            _mm512_storeu_si512(wide + s * 32, BFREE_TILE_LOAD_512(ai, s));
        std::int32_t *oi = out + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::int8_t *b0 = bt + j * k, *b1 = b0 + k,
                              *b2 = b1 + k, *b3 = b2 + k;
            __m512i s0 = _mm512_setzero_si512();
            __m512i s1 = s0, s2 = s0, s3 = s0;
            for (std::size_t s = 0; s < steps; ++s) {
                const __m512i av = _mm512_loadu_si512(wide + s * 32);
                BFREE_TILE_STEP_512(s0, b0);
                BFREE_TILE_STEP_512(s1, b1);
                BFREE_TILE_STEP_512(s2, b2);
                BFREE_TILE_STEP_512(s3, b3);
            }
            __m128i *dst = reinterpret_cast<__m128i *>(oi + j);
            _mm_storeu_si128(
                dst, _mm_add_epi32(_mm_loadu_si128(dst),
                                   hsum4_u32x8(BFREE_FOLD_TO_256(s0),
                                               BFREE_FOLD_TO_256(s1),
                                               BFREE_FOLD_TO_256(s2),
                                               BFREE_FOLD_TO_256(s3))));
        }
        for (; j < n; ++j) {
            const std::int8_t *b0 = bt + j * k;
            __m512i s0 = _mm512_setzero_si512();
            for (std::size_t s = 0; s < steps; ++s) {
                const __m512i av = _mm512_loadu_si512(wide + s * 32);
                BFREE_TILE_STEP_512(s0, b0);
            }
            oi[j] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(oi[j])
                + wsum_u32x8(BFREE_FOLD_TO_256(s0)));
        }
    }
#undef BFREE_FOLD_TO_256
#undef BFREE_TILE_STEP_512
#undef BFREE_TILE_LOAD_512
}

/**
 * AVX-512 packed-tile products: the AVX2 scheme with one 64-byte load
 * per full group (its low nibbles meet the group's first 64 A values,
 * its high nibbles the next 64); a trailing half group takes one
 * 256-bit step into a separate accumulator.
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) void
tile_products_packed_avx512(const std::int8_t *a,
                            const lut::PackedTile &bt, std::int32_t *out,
                            std::size_t m, std::int8_t *row)
{
    const std::size_t k = bt.cols, n = bt.rows;
    const std::size_t rb = lut::PackedTile::rowBytes(k);
    const std::size_t full = rb / 64 * 64;
    const __m512i nib5 = _mm512_set1_epi8(0x0F);
    const __m512i ones5 = _mm512_set1_epi16(1);
    const __m256i nib = _mm256_set1_epi8(0x0F);
    const __m256i ones = _mm256_set1_epi16(1);
#define BFREE_PACKED_STEP_512(acc, b)                                    \
    do {                                                                 \
        const __m512i x_ = _mm512_loadu_si512((b) + s);                  \
        (acc) = _mm512_add_epi32(                                        \
            (acc),                                                       \
            _mm512_madd_epi16(                                           \
                _mm512_add_epi16(                                        \
                    _mm512_maddubs_epi16(_mm512_and_si512(x_, nib5),     \
                                         alo),                           \
                    _mm512_maddubs_epi16(                                \
                        _mm512_and_si512(_mm512_srli_epi16(x_, 4),       \
                                         nib5),                          \
                        ahi)),                                           \
                ones5));                                                 \
    } while (0)
#define BFREE_FOLD_TO_256(v)                                             \
    _mm256_add_epi32(_mm512_castsi512_si256(v),                          \
                     _mm512_extracti64x4_epi64(v, 1))
    for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t bias = stage_packed_row(a + i * k, k, 2 * rb, row);
        const bool half = full < rb;
        const std::int8_t *hrow = row + 2 * full;
        std::int32_t *oi = out + i * n;
        std::size_t j = 0;
        for (; j + 4 <= n; j += 4) {
            const std::uint8_t *b0 = bt.row(j), *b1 = bt.row(j + 1),
                               *b2 = bt.row(j + 2), *b3 = bt.row(j + 3);
            __m512i s0 = _mm512_setzero_si512();
            __m512i s1 = s0, s2 = s0, s3 = s0;
            for (std::size_t s = 0; s < full; s += 64) {
                const __m512i alo = _mm512_loadu_si512(row + 2 * s);
                const __m512i ahi = _mm512_loadu_si512(row + 2 * s + 64);
                BFREE_PACKED_STEP_512(s0, b0);
                BFREE_PACKED_STEP_512(s1, b1);
                BFREE_PACKED_STEP_512(s2, b2);
                BFREE_PACKED_STEP_512(s3, b3);
            }
            __m256i t0 = BFREE_FOLD_TO_256(s0), t1 = BFREE_FOLD_TO_256(s1),
                    t2 = BFREE_FOLD_TO_256(s2), t3 = BFREE_FOLD_TO_256(s3);
            if (half) {
                const __m256i h0 = BFREE_LOAD_256(hrow);
                const __m256i h1 = BFREE_LOAD_256(hrow + 32);
                BFREE_PACKED_HALF_256(t0, b0);
                BFREE_PACKED_HALF_256(t1, b1);
                BFREE_PACKED_HALF_256(t2, b2);
                BFREE_PACKED_HALF_256(t3, b3);
            }
            __m128i *dst = reinterpret_cast<__m128i *>(oi + j);
            _mm_storeu_si128(
                dst, _mm_add_epi32(
                         _mm_loadu_si128(dst),
                         _mm_add_epi32(hsum4_u32x8(t0, t1, t2, t3),
                                       _mm_set1_epi32(
                                           static_cast<int>(bias)))));
        }
        for (; j < n; ++j) {
            const std::uint8_t *b0 = bt.row(j);
            __m512i s0 = _mm512_setzero_si512();
            for (std::size_t s = 0; s < full; s += 64) {
                const __m512i alo = _mm512_loadu_si512(row + 2 * s);
                const __m512i ahi = _mm512_loadu_si512(row + 2 * s + 64);
                BFREE_PACKED_STEP_512(s0, b0);
            }
            __m256i t0 = BFREE_FOLD_TO_256(s0);
            if (half) {
                const __m256i h0 = BFREE_LOAD_256(hrow);
                const __m256i h1 = BFREE_LOAD_256(hrow + 32);
                BFREE_PACKED_HALF_256(t0, b0);
            }
            oi[j] = static_cast<std::int32_t>(
                static_cast<std::uint32_t>(oi[j]) + wsum_u32x8(t0) + bias);
        }
    }
#undef BFREE_FOLD_TO_256
#undef BFREE_PACKED_STEP_512
#undef BFREE_PACKED_HALF_256
#undef BFREE_NIBBLE_DOT_256
#undef BFREE_LOAD_256
}

/**
 * AVX2 PWL span, four doubles per step. Every step is the scalar
 * evaluate's: clamp by the same two comparisons (max(lo, x) then
 * min(hi, .) pick exactly what std::clamp picks, signed zeros
 * included), the segment index truncated from the same division and
 * capped unsigned (a NaN's out-of-range index lands on the last
 * segment, as the scalar cast does), then one rounded multiply and one
 * rounded add — fp-contract is off for this function so the compiler
 * cannot fuse them into an FMA. The n % 4 tail is the scalar evaluate.
 */
__attribute__((target("avx2"), optimize("fp-contract=off"))) void
pwl_span_avx2(const lut::PwlTable &table, const double *x, std::size_t n,
              double *y)
{
    static_assert(sizeof(lut::PwlSegment) == 2 * sizeof(double));
    const double *ab = &table.raw()[0].alpha;
    const __m256d lo = _mm256_set1_pd(table.xmin());
    const __m256d hi = _mm256_set1_pd(table.xmax());
    const __m256d width = _mm256_set1_pd(table.segmentWidth());
    const __m128i last = _mm_set1_epi32(
        static_cast<int>(table.segments() - 1));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d c = _mm256_min_pd(
            hi, _mm256_max_pd(lo, _mm256_loadu_pd(x + i)));
        const __m128i idx = _mm_min_epu32(
            _mm256_cvttpd_epi32(_mm256_div_pd(_mm256_sub_pd(c, lo), width)),
            last);
        const __m128i at = _mm_add_epi32(idx, idx);
        const __m256d alpha = _mm256_i32gather_pd(ab, at, 8);
        const __m256d beta = _mm256_i32gather_pd(ab + 1, at, 8);
        _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_mul_pd(alpha, c), beta));
    }
    for (; i < n; ++i)
        y[i] = table.evaluate(x[i]);
}

/** AVX-512 PWL span: the AVX2 span at eight doubles per step. */
__attribute__((target("avx512f,avx512bw,avx512vl"),
               optimize("fp-contract=off"))) void
pwl_span_avx512(const lut::PwlTable &table, const double *x, std::size_t n,
                double *y)
{
    const double *ab = &table.raw()[0].alpha;
    const __m512d lo = _mm512_set1_pd(table.xmin());
    const __m512d hi = _mm512_set1_pd(table.xmax());
    const __m512d width = _mm512_set1_pd(table.segmentWidth());
    const __m256i last = _mm256_set1_epi32(
        static_cast<int>(table.segments() - 1));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512d c = _mm512_min_pd(
            hi, _mm512_max_pd(lo, _mm512_loadu_pd(x + i)));
        const __m256i idx = _mm256_min_epu32(
            _mm512_cvttpd_epi32(_mm512_div_pd(_mm512_sub_pd(c, lo), width)),
            last);
        const __m256i at = _mm256_add_epi32(idx, idx);
        const __m512d alpha = _mm512_i32gather_pd(at, ab, 8);
        const __m512d beta = _mm512_i32gather_pd(at, ab + 1, 8);
        _mm512_storeu_pd(y + i, _mm512_add_pd(_mm512_mul_pd(alpha, c), beta));
    }
    for (; i < n; ++i)
        y[i] = table.evaluate(x[i]);
}

#pragma GCC diagnostic pop

#endif // BFREE_X86_KERNELS

} // namespace

SpanSums
run_span(const lut::DatapathTable &table, const std::int8_t *a,
         const std::int8_t *b, std::size_t len)
{
    if (!table.valid())
        bfree_panic("span kernel dispatched on an unseeded datapath "
                    "table");
    const bool clamp = table.bits() == 4;

    // The fold requires the pristine steady state: every product exact
    // (widening multiply legal) and the whole delta plane verified
    // against the class collapse. A rewritten LUT row or a doctored
    // table walks the scalar table loop at every level.
    [[maybe_unused]] const bool foldable =
        table.productsExact() && table.histogramExact();

    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        if (foldable)
            return span_avx512_hist(table, a, b, len, clamp);
        break;
      case sim::SimdLevel::Avx2:
        if (foldable)
            return span_avx2_hist(table, a, b, len, clamp);
        break;
#endif
      default:
        break;
    }
    return span_scalar(table, a, b, len, clamp);
}

void
column_features(const std::int8_t *m, std::size_t rows, std::size_t cols,
                lut::ColumnFeatures &out)
{
    out.rows = rows;
    out.cols = cols;
    // The kernels write every byte, the padding columns 0.
    out.sums.resize(out.blocks() * 4 * lut::ColumnFeatures::stride(cols));
    std::uint8_t *sums = out.sums.data();
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        out.maxMagnitude = column_features_avx512(m, rows, cols, sums);
        return;
      case sim::SimdLevel::Avx2:
        out.maxMagnitude = column_features_avx2(m, rows, cols, sums);
        return;
#endif
      default:
        out.maxMagnitude = column_features_scalar(m, rows, cols, 0, sums);
        return;
    }
}

FeatureSums
fold_tile(const std::int8_t *a, std::size_t m, std::size_t k,
          const lut::ColumnFeatures &bt, std::uint32_t &maxA)
{
    if (bt.cols != k)
        bfree_panic("column features of ", bt.cols, " columns cannot fold "
                    "against a tile of ", k);
    FeatureSums s;
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        maxA = fold_tile_avx512(a, m, k, bt, s);
        return s;
      case sim::SimdLevel::Avx2:
        maxA = fold_tile_avx2(a, m, k, bt, s);
        return s;
#endif
      default:
        maxA = fold_tile_scalar(a, m, k, 0, bt, s);
        return s;
    }
}

void
tile_products(const std::int8_t *a, const std::int8_t *bt,
              std::int32_t *out, std::size_t m, std::size_t k,
              std::size_t n, std::vector<std::int16_t> &wide)
{
    // Room for one A row rounded up to the widest step (32 lanes).
    wide.resize((k + 31) / 32 * 32);
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        tile_products_avx512(a, bt, out, m, k, n, wide.data());
        return;
      case sim::SimdLevel::Avx2:
        tile_products_avx2(a, bt, out, m, k, n, wide.data());
        return;
#endif
      default:
        tile_products_scalar(a, bt, out, m, k, n);
        return;
    }
}

void
tile_products(const std::int8_t *a, const lut::PackedTile &bt,
              std::int32_t *out, std::size_t m,
              std::vector<std::int8_t> &row)
{
    row.resize(2 * lut::PackedTile::rowBytes(bt.cols));
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        tile_products_packed_avx512(a, bt, out, m, row.data());
        return;
      case sim::SimdLevel::Avx2:
        tile_products_packed_avx2(a, bt, out, m, row.data());
        return;
#endif
      default:
        tile_products_packed_scalar(a, bt, out, m, row.data());
        return;
    }
}

void
pwl_span(const lut::PwlTable &table, const double *x, std::size_t n,
         double *y)
{
    switch (sim::active_simd_level()) {
#ifdef BFREE_X86_KERNELS
      case sim::SimdLevel::Avx512:
        pwl_span_avx512(table, x, n, y);
        return;
      case sim::SimdLevel::Avx2:
        pwl_span_avx2(table, x, n, y);
        return;
#endif
      default:
        for (std::size_t i = 0; i < n; ++i)
            y[i] = table.evaluate(x[i]);
        return;
    }
}

namespace {

/** Start of run @p i of @p v (offset table or uniform stride). */
inline const std::int8_t *
view_run(const SpanView &v, std::size_t i)
{
    return v.base
           + (v.offsets ? static_cast<std::size_t>(v.offsets[i])
                        : i * v.stride);
}

/** Copy exactly @p len in [5, 8] bytes with two overlapping u32s. */
inline void
copy_le8(std::int8_t *dst, const std::int8_t *src, std::size_t len)
{
    std::memcpy(dst, src, 4);
    std::memcpy(dst + len - 4, src + len - 4, 4);
}

/** Copy exactly @p len in [1, 8] bytes, branch per width class. */
inline void
copy_exact_le8(std::int8_t *dst, const std::int8_t *src, std::size_t len)
{
    if (len >= 4) {
        copy_le8(dst, src, len);
    } else if (len == 3) {
        std::memcpy(dst, src, 2);
        dst[2] = src[2];
    } else if (len == 2) {
        std::memcpy(dst, src, 2);
    } else {
        dst[0] = src[0];
    }
}

} // namespace

void
materialize_span_view(const SpanView &view, std::int8_t *dst)
{
    const std::size_t n = view.nRuns;
    // With 8 bytes of slack guaranteed on both sides, every short run
    // is one 8-byte load/store: runs are packed contiguously in dst,
    // so run i's overshoot is overwritten when run i+1 lands, and the
    // last run's overshoot falls into the caller's slack.
    if (view.slack8 && view.runLen < 8) {
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + view.runLen * i, view_run(view, i), 8);
        return;
    }
    // Specialize the hot run widths so every copy is a fixed-size
    // load/store pair the compiler lowers to plain movs — the point
    // is killing per-run call and branch overhead, and every write is
    // exact-width (no trailing clobber for the last run to worry
    // about).
    switch (view.runLen) {
      case 1:
        for (std::size_t i = 0; i < n; ++i)
            dst[i] = *view_run(view, i);
        return;
      case 2:
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + 2 * i, view_run(view, i), 2);
        return;
      case 3:
        for (std::size_t i = 0; i < n; ++i) {
            const std::int8_t *src = view_run(view, i);
            std::memcpy(dst + 3 * i, src, 2);
            dst[3 * i + 2] = src[2];
        }
        return;
      case 4:
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + 4 * i, view_run(view, i), 4);
        return;
      case 5:
      case 6:
      case 7:
        for (std::size_t i = 0; i < n; ++i)
            copy_le8(dst + view.runLen * i, view_run(view, i),
                     view.runLen);
        return;
      case 8:
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + 8 * i, view_run(view, i), 8);
        return;
      default:
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + view.runLen * i, view_run(view, i),
                        view.runLen);
        return;
    }
}

void
materialize_span_block(const SpanView &view, std::size_t nPatches,
                       std::size_t srcStep, std::int8_t *dst,
                       std::size_t dstStep)
{
    if (view.slack8 && view.runLen < 8 && view.nRuns > 0) {
        // Transposed: the outer loop resolves each run's base once,
        // the inner loop walks the patches — for a stride-1 conv row
        // the sources are consecutive bytes, all in one or two cache
        // lines. Unlike the per-patch order, a run's overshoot is only
        // rewritten by a later run of the SAME patch if it stays
        // inside that patch's dstStep slot: any spill past the slot
        // lands in patch j+1's first runs, which run 0 already wrote.
        // So the 8-byte copy is used for the prefix of runs whose
        // spill stays in-slot and the tail copies exact-width.
        const std::size_t fast =
            dstStep >= SpanView::slackBytes
                ? std::min(view.nRuns,
                           (dstStep - SpanView::slackBytes) / view.runLen
                               + 1)
                : 0;
        for (std::size_t i = 0; i < fast; ++i) {
            const std::int8_t *src = view_run(view, i);
            std::int8_t *d = dst + view.runLen * i;
            for (std::size_t j = 0; j < nPatches; ++j)
                std::memcpy(d + j * dstStep, src + j * srcStep, 8);
        }
        for (std::size_t i = fast; i < view.nRuns; ++i) {
            const std::int8_t *src = view_run(view, i);
            std::int8_t *d = dst + view.runLen * i;
            for (std::size_t j = 0; j < nPatches; ++j)
                copy_exact_le8(d + j * dstStep, src + j * srcStep,
                               view.runLen);
        }
        return;
    }
    // Exact-width fallback: per-patch materialization.
    SpanView shifted = view;
    for (std::size_t j = 0; j < nPatches; ++j) {
        shifted.base = view.base + j * srcStep;
        materialize_span_view(shifted, dst + j * dstStep);
    }
}

} // namespace bfree::bce::simd
