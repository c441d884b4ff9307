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
 * Scalar element loop over [begin, end): the whole span for tables the
 * fold cannot serve, and the rest of a span after the fold met a
 * strict-domain violation. Accumulates into @p s / @p acc; returns
 * false at the first strict-domain violation (with firstOutOfRange
 * set).
 */
bool
scalar_range(const lut::DatapathTable &t, const std::int8_t *a,
             const std::int8_t *b, std::size_t begin, std::size_t end,
             bool clamp, bool strict, std::uint32_t &acc, SpanSums &s)
{
    const std::int32_t half = t.half();
    const std::int32_t *prod = t.products();
    const std::uint32_t *delta = t.deltas();
    const bool exact = t.productsExact();

    TallyBlock tb;
    for (std::size_t i = begin; i < end; ++i) {
        std::int32_t w = a[i];
        std::int32_t x = b[i];
        if (clamp) {
            w = std::clamp(w, -half, half - 1);
            x = std::clamp(x, -half, half - 1);
        } else if (strict
                   && (w < -half || w > half || x < -half || x > half)) {
            tb.spill(s);
            s.inRange = false;
            s.firstOutOfRange = i;
            return false;
        }
        const std::size_t idx = t.index(w, x);
        acc += static_cast<std::uint32_t>(exact ? w * x : prod[idx]);
        tb.add(delta[idx], s);
    }
    tb.spill(s);
    return true;
}

SpanSums
span_scalar(const lut::DatapathTable &t, const std::int8_t *a,
            const std::int8_t *b, std::size_t len, bool clamp,
            bool strict)
{
    SpanSums s;
    std::uint32_t acc = 0;
    scalar_range(t, a, b, 0, len, clamp, strict, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
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

/**
 * The feature dot products of one span, the factored histogram fold:
 * P = sum p(a)p(b), O = sum o(a)o(b), L = sum l(a)l(b),
 * Z = sum z(a)z(b). The caller turns them into micro-op tallies with
 * the verified bilinear formulas (see DatapathTable).
 */
struct FeatureSums
{
    std::uint64_t p = 0, o = 0, l = 0, z = 0;
};

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
__attribute__((target("avx2"))) void
reduce_features_u32x8(__m256i p, __m256i o, __m256i l, __m256i z,
                      FeatureSums &f)
{
    const __m256i po = _mm256_hadd_epi32(p, o);
    const __m256i lz = _mm256_hadd_epi32(l, z);
    const __m256i polz = _mm256_hadd_epi32(po, lz);
    const __m128i r = _mm_add_epi32(_mm256_castsi256_si128(polz),
                                    _mm256_extracti128_si256(polz, 1));
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
 * clamped to [-half, half - 1] before it is classified and multiplied;
 * with @p strict each block is checked against [-half, +half] and a
 * hit hands the rest of the span to scalar_range, which reports the
 * first offender in element order. The ragged tail (len % 32) is one
 * more step over a zero-filled copy: zero is class 0, whose features
 * and product are all 0, so the padding lanes add nothing to any sum.
 */
__attribute__((target("avx2"))) SpanSums
span_avx2_hist(const lut::DatapathTable &t, const std::int8_t *a,
               const std::int8_t *b, std::size_t len, bool clamp,
               bool strict)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_256;
    const __m256i kFP = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_p.data())));
    const __m256i kFO = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_o.data())));
    const __m256i kFL = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_l.data())));
    const __m256i kFZ = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_z.data())));
    const __m256i kOne16 = _mm256_set1_epi16(1);
    // Read only by 4-bit spans: the clamp range [kMin, kClampMax] and
    // the strict magnitude limit kHalf.
    const __m256i kMin = _mm256_set1_epi8(static_cast<char>(-t.half()));
    const __m256i kClampMax =
        _mm256_set1_epi8(static_cast<char>(t.half() - 1));
    const __m256i kHalf = _mm256_set1_epi8(static_cast<char>(t.half()));

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

    std::size_t i = 0;
    for (; i < len; i += 32) {
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
        } else if (strict) {
            // Unsigned |v| (abs(-128) reads 128) exceeds half exactly
            // when v is out of domain; the saturating subtract leaves
            // a nonzero byte only there.
            const __m256i over = _mm256_subs_epu8(
                _mm256_max_epu8(_mm256_abs_epi8(va), _mm256_abs_epi8(vb)),
                kHalf);
            if (!_mm256_testz_si256(over, over))
                break;
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

    // Only a strict-domain violation leaves elements unfolded.
    if (i < len)
        scalar_range(t, a, b, i, len, clamp, strict, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

/**
 * AVX-512 histogram fold: 64 pairs per step, same factored fold and
 * clamp/strict handling as the AVX2 variant in 512-bit lanes (BW byte
 * shuffles, mask-blended class compression). The ragged tail is one
 * more step whose masked loads zero the lanes past len (and never
 * touch their memory).
 */
__attribute__((target("avx512f,avx512bw,avx512vl"))) SpanSums
span_avx512_hist(const lut::DatapathTable &t, const std::int8_t *a,
                 const std::int8_t *b, std::size_t len, bool clamp,
                 bool strict)
{
    SpanSums s;
    BFREE_CLASSIFY_CONSTS_512;
    const __m512i kFP = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_p.data())));
    const __m512i kFO = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_o.data())));
    const __m512i kFL = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_l.data())));
    const __m512i kFZ = _mm512_broadcast_i32x4(_mm_loadu_si128(
        reinterpret_cast<const __m128i *>(
            lut::DatapathTable::class_feature_z.data())));
    const __m512i kOne16 = _mm512_set1_epi16(1);
    // Read only by 4-bit spans: the clamp range [kMin, kClampMax] and
    // the strict magnitude limit kHalf.
    const __m512i kMin = _mm512_set1_epi8(static_cast<char>(-t.half()));
    const __m512i kClampMax =
        _mm512_set1_epi8(static_cast<char>(t.half() - 1));
    const __m512i kHalf = _mm512_set1_epi8(static_cast<char>(t.half()));

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

    std::size_t i = 0;
    for (; i < len; i += 64) {
        const __mmask64 lanes = len - i >= 64
                                    ? ~__mmask64{0}
                                    : (__mmask64{1} << (len - i)) - 1;
        __m512i va = _mm512_maskz_loadu_epi8(lanes, a + i);
        __m512i vb = _mm512_maskz_loadu_epi8(lanes, b + i);
        if (clamp) {
            va = _mm512_min_epi8(_mm512_max_epi8(va, kMin), kClampMax);
            vb = _mm512_min_epi8(_mm512_max_epi8(vb, kMin), kClampMax);
        } else if (strict
                   && _mm512_cmpgt_epu8_mask(
                          _mm512_max_epu8(_mm512_abs_epi8(va),
                                          _mm512_abs_epi8(vb)),
                          kHalf)
                          != 0) {
            break;
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

    // Only a strict-domain violation leaves elements unfolded.
    if (i < len)
        scalar_range(t, a, b, i, len, clamp, strict, acc, s);
    s.acc = static_cast<std::int32_t>(acc);
    return s;
}

#pragma GCC diagnostic pop

#endif // BFREE_X86_KERNELS

} // namespace

SpanSums
run_span(const lut::DatapathTable &table, const std::int8_t *a,
         const std::int8_t *b, std::size_t len, SpanSemantics semantics)
{
    if (!table.valid())
        bfree_panic("span kernel dispatched on an unseeded datapath "
                    "table");
    const bool clamp =
        semantics == SpanSemantics::ConvClamp && table.bits() == 4;
    const bool strict =
        semantics == SpanSemantics::MatmulStrict && table.bits() == 4;

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
            return span_avx512_hist(table, a, b, len, clamp, strict);
        break;
      case sim::SimdLevel::Avx2:
        if (foldable)
            return span_avx2_hist(table, a, b, len, clamp, strict);
        break;
#endif
      default:
        break;
    }
    return span_scalar(table, a, b, len, clamp, strict);
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
