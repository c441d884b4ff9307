#include "bce.hh"

#include <algorithm>
#include <cstdlib>

#include "lut/lut_image.hh"
#include "sim/logging.hh"
#include "simd_kernels.hh"

namespace bfree::bce {

namespace {

/** The 49-entry multiply image loadMultLutImage() writes to the rows. */
lut::LutImage
mult_lut_image()
{
    return lut::serialize(lut::MultLut{});
}

} // namespace

Bce::Bce(mem::Subarray &subarray, const tech::TechParams &tech,
         mem::EnergyAccount &energy)
    : sa(&subarray), tech(tech), energy(&energy)
{}

void
Bce::chargeCycles(std::uint64_t n)
{
    stats_.cycles += n;
    stats_.cyclesByMode[static_cast<std::size_t>(_mode)] += n;
}

void
Bce::noteConvLutReads(std::uint64_t n)
{
    if (n == 0)
        return;
    // lut_en decides the cost category a read will flush into.
    if (sa->pimModeEnabled())
        stats_.lutReadsPim += n;
    else
        stats_.lutReadsCache += n;
    sa->noteLutReads(n);
}

void
Bce::flushEnergy()
{
    mem::BceEnergyTallies now;
    now.romLookups = stats_.counts.romLookups;
    now.lutReadsPim = stats_.lutReadsPim;
    now.lutReadsCache = stats_.lutReadsCache;
    now.specialLutEvents = stats_.specialLutEvents;
    now.cyclesByMode = stats_.cyclesByMode;

    mem::BceEnergyTallies delta;
    delta.romLookups = now.romLookups - flushed_.romLookups;
    delta.lutReadsPim = now.lutReadsPim - flushed_.lutReadsPim;
    delta.lutReadsCache = now.lutReadsCache - flushed_.lutReadsCache;
    delta.specialLutEvents =
        now.specialLutEvents - flushed_.specialLutEvents;
    for (std::size_t m = 0; m < now.cyclesByMode.size(); ++m)
        delta.cyclesByMode[m] =
            now.cyclesByMode[m] - flushed_.cyclesByMode[m];

    mem::MicroOpEnergyModel(tech).deposit(delta, *energy);
    flushed_ = now;
}

void
Bce::setMode(BceMode mode)
{
    if (mode == _mode)
        return;
    _mode = mode;
    ++switches_[static_cast<std::size_t>(mode)];
    chargeCycles(1);
}

void
Bce::chargeModeSwitches(BceMode mode, std::uint64_t n)
{
    const std::size_t i = static_cast<std::size_t>(mode);
    switches_[i] += n;
    stats_.cycles += n;
    stats_.cyclesByMode[i] += n;
}

void
Bce::loadMultLutImage()
{
    if (multLutLoaded)
        return;
    sa->loadLut(mult_lut_image().bytes);
    pristineGeneration_ = sa->lutGeneration();
    multLutLoaded = true;
}

void
Bce::loadConfig(const ConfigBlock &new_cb)
{
    cb = new_cb;
    ++stats_.configLoads;
    chargeCycles(1);
}

namespace {

/**
 * 4-bit multiply with the partial products read from LUT rows through
 * @p peek (byte offset -> byte); micro-ops land in @p counts. No stats
 * or energy side effects, so the same code both executes the legacy
 * path and seeds every conv-mode datapath table.
 */
template <typename Peek>
std::int64_t
lut_multiply4(const Peek &peek, unsigned a, unsigned b,
              lut::MicroOpCounts &counts)
{
    using lut::OperandClass;
    const OperandClass ca = lut::classify_operand(a);
    const OperandClass cb_class = lut::classify_operand(b);
    if (ca == OperandClass::Zero || cb_class == OperandClass::Zero)
        return 0;

    const lut::OddDecomposition da = lut::decompose_odd(a);
    const lut::OddDecomposition db = lut::decompose_odd(b);
    const unsigned total_shift = da.shift + db.shift;

    std::int64_t product = 0;
    if (da.odd == 1 && db.odd == 1) {
        product = std::int64_t{1} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    } else if (da.odd == 1 || db.odd == 1) {
        const unsigned odd = da.odd == 1 ? db.odd : da.odd;
        product = std::int64_t{odd} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    } else {
        const std::size_t offset =
            lut::MultLut::operandIndex(da.odd) * lut::num_odd_operands
            + lut::MultLut::operandIndex(db.odd);
        const std::uint8_t value = peek(offset);
        ++counts.lutLookups;
        product = std::int64_t{value} << total_shift;
        if (total_shift > 0)
            ++counts.shifts;
    }
    return product;
}

/** Signed multiply of @p bits precision through the LUT rows @p peek
 *  reads, one nibble pair at a time; side-effect-free except for
 *  @p counts. */
template <typename Peek>
std::int64_t
multiply_via_lut_rows(const Peek &peek, std::int32_t a, std::int32_t b,
                      unsigned bits, lut::MicroOpCounts &counts)
{
    const unsigned nibbles = bits / 4;
    const bool negative = (a < 0) != (b < 0);
    const auto ua = static_cast<std::uint32_t>(std::abs(a));
    const auto ub = static_cast<std::uint32_t>(std::abs(b));

    std::int64_t product = 0;
    bool first = true;
    for (unsigned i = 0; i < nibbles; ++i) {
        const unsigned na = (ua >> (4 * i)) & 0xF;
        if (na == 0)
            continue;
        for (unsigned j = 0; j < nibbles; ++j) {
            const unsigned nb = (ub >> (4 * j)) & 0xF;
            if (nb == 0)
                continue;
            product += lut_multiply4(peek, na, nb, counts) << (4 * (i + j));
            if (!first)
                ++counts.adds;
            first = false;
        }
    }
    return negative ? -product : product;
}

/** Seed a conv-mode table for @p bits from the legacy path over the
 *  LUT rows @p peek reads; the table can only reproduce the
 *  reference. */
template <typename Peek>
lut::DatapathTable
seed_conv_table(unsigned bits, const Peek &peek)
{
    return lut::DatapathTable::build(
        bits, [&](std::int32_t a, std::int32_t b) {
            lut::MultResult r;
            r.product = multiply_via_lut_rows(peek, a, b, bits, r.counts);
            return r;
        });
}

/**
 * The process-wide conv table for @p bits (4 or 8) over the pristine
 * multiply image: seeded on first use from the same bytes
 * loadMultLutImage() writes, each precision on its own, and read-only
 * afterwards.
 */
const lut::DatapathTable &
pristine_conv_table(unsigned bits)
{
    const auto seed = [](unsigned b) {
        const lut::LutImage image = mult_lut_image();
        return seed_conv_table(
            b, [&](std::size_t offset) { return image.bytes.at(offset); });
    };
    if (bits == 4) {
        static const lut::DatapathTable t4 = seed(4);
        return t4;
    }
    static const lut::DatapathTable t8 = seed(8);
    return t8;
}

} // namespace

std::int64_t
Bce::multiplyViaSubarrayLut(std::int32_t a, std::int32_t b, unsigned bits,
                            lut::MicroOpCounts &counts)
{
    if (!multLutLoaded)
        bfree_panic("conv-mode multiply before the LUT image was loaded");
    return multiply_via_lut_rows(
        [this](std::size_t offset) { return sa->lutPeek(offset); }, a, b,
        bits, counts);
}

const lut::DatapathTable &
Bce::convTable(unsigned bits)
{
    if (!multLutLoaded)
        bfree_panic("conv-mode multiply before the LUT image was loaded");
    const std::uint64_t gen = sa->lutGeneration();
    if (gen == pristineGeneration_)
        return pristine_conv_table(bits);

    // The rows were rewritten since the image load: seed a private
    // table against the live bytes, tagged with their generation.
    lut::DatapathTable &t = bits == 4 ? convTable4_ : convTable8_;
    if (!t.matchesGeneration(gen)) {
        t = seed_conv_table(bits, [this](std::size_t offset) {
            return sa->lutPeek(offset);
        });
        t.generation = gen;
        ++convSeeds_;
    }
    return t;
}

std::int64_t
Bce::multiply(std::int32_t a, std::int32_t b, unsigned bits)
{
    if (bits != 4 && bits != 8 && bits != 16)
        bfree_fatal("unsupported BCE multiply precision: ", bits);

    if (_mode == BceMode::Matmul) {
        // Hardwired ROM path; the analyzer counts ROM lookups.
        lut::MultResult r = lut::multiply_signed(
            a, b, bits, rom, lut::LookupSource::BceRom);
        stats_.counts += r.counts;
        return r.product;
    }
    lut::MicroOpCounts c;
    const std::int64_t product = multiplyViaSubarrayLut(a, b, bits, c);
    stats_.counts += c;
    noteConvLutReads(c.lutLookups);
    return product;
}

std::int32_t
Bce::dotProduct(std::size_t weight_offset, const std::int8_t *inputs,
                std::size_t len, unsigned bits)
{
    if (_mode != BceMode::Conv)
        bfree_panic("dotProduct requires conv mode");

    const std::size_t bytes = len * (bits <= 8 ? 1 : 2);
    if (weightBuf_.size() < bytes)
        weightBuf_.resize(bytes);
    sa->read(weight_offset, weightBuf_.data(), bytes);
    const std::uint8_t *weights = weightBuf_.data();

    if (bits <= 8)
        return dotProductSpan(
            reinterpret_cast<const std::int8_t *>(weights), inputs,
            len, bits);

    std::int64_t acc = 0;
    for (std::size_t i = 0; i < len; ++i) {
        const auto w = static_cast<std::int32_t>(static_cast<std::int16_t>(
            weights[2 * i] | (weights[2 * i + 1] << 8)));
        lut::MicroOpCounts c;
        acc += multiplyViaSubarrayLut(w, inputs[i], bits, c);
        stats_.counts += c;
        noteConvLutReads(c.lutLookups);
        if (i > 0)
            ++stats_.counts.adds;
    }

    // Conv-mode rate: bits/4 cycles per MAC (0.5 MAC/cycle at 8-bit).
    chargeCycles(len * (bits / 4));
    stats_.macs += len;
    return static_cast<std::int32_t>(acc);
}

std::int32_t
Bce::dotProductSpan(const std::int8_t *weights, const std::int8_t *inputs,
                    std::size_t len, unsigned bits)
{
    if (_mode != BceMode::Conv)
        bfree_panic("dotProduct requires conv mode");

    std::int64_t acc = 0;
    if (_tier == ExecTier::Tiered && lut::DatapathTable::coversBits(bits)) {
        // The dispatched SIMD kernel returns exactly the sums the
        // scalar loop would have accumulated element by element.
        const lut::DatapathTable &t = convTable(bits);
        const simd::SpanSums s = simd::run_span(t, weights, inputs, len);
        acc = s.acc;
        stats_.counts.lutLookups += s.lookups;
        stats_.counts.shifts += s.shifts;
        stats_.counts.adds += s.adds + (len > 0 ? len - 1 : 0);
        noteConvLutReads(s.lookups);
    } else {
        for (std::size_t i = 0; i < len; ++i) {
            std::int32_t w = weights[i];
            std::int32_t in = inputs[i];
            if (bits == 4) {
                w = std::clamp(w, -8, 7);
                in = std::clamp(in, -8, 7);
            }
            lut::MicroOpCounts c;
            acc += multiplyViaSubarrayLut(w, in, bits, c);
            stats_.counts += c;
            noteConvLutReads(c.lutLookups);
            if (i > 0)
                ++stats_.counts.adds;
        }
    }

    chargeCycles(len * (bits / 4));
    stats_.macs += len;
    return static_cast<std::int32_t>(acc);
}

void
Bce::broadcastMac(std::int32_t a, const std::int8_t *b, std::size_t n,
                  std::int32_t *acc, unsigned bits)
{
    if (_mode != BceMode::Matmul)
        bfree_panic("broadcastMac requires matmul mode");
    if (n > bce_vector_width)
        bfree_panic("broadcastMac width ", n, " exceeds the register file "
                    "width ", bce_vector_width);

    for (std::size_t i = 0; i < n; ++i) {
        lut::MultResult r = lut::multiply_signed(
            a, b[i], bits, rom, lut::LookupSource::BceRom);
        stats_.counts += r.counts;
        acc[i] += static_cast<std::int32_t>(r.product);
        ++stats_.counts.adds;
    }

    // One LS-4/MS-4 pass per operand nibble, independent of n (Fig. 7).
    chargeCycles(bits / 4);
    stats_.macs += n;
}

std::int32_t
Bce::matmulDotSpan(const std::int8_t *a, const std::int8_t *b,
                   std::size_t len, unsigned bits)
{
    std::int32_t acc = 0;
    matmulTile(a, b, &acc, 1, len, 1, bits);
    return acc;
}

void
Bce::checkTileDomain(const std::int8_t *a, const std::int8_t *bt,
                     std::size_t m, std::size_t k, std::size_t n,
                     unsigned bits)
{
    const std::int32_t limit = std::int32_t{1} << (bits - 1);
    const auto outside = [limit](std::int8_t v) {
        return v < -limit || v > limit;
    };
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t t = 0; t < k; ++t)
                if (outside(a[i * k + t]) || outside(bt[j * k + t]))
                    lut::multiply_signed(a[i * k + t], bt[j * k + t],
                                         bits, rom,
                                         lut::LookupSource::BceRom);
}

namespace {

/** A +8 in an int8 BT lies inside the 4-bit domain but packs as -8:
 *  add the missing 16 * a to every output it feeds. */
void
add_back_eights(const std::int8_t *a, const std::int8_t *bt,
                std::int32_t *out, std::size_t m, std::size_t k,
                std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = 0; p < k; ++p)
            if (bt[j * k + p] == 8)
                for (std::size_t i = 0; i < m; ++i)
                    out[i * n + j] = static_cast<std::int32_t>(
                        static_cast<std::uint32_t>(out[i * n + j])
                        + 16u * static_cast<std::uint32_t>(a[i * k + p]));
}

} // namespace

const lut::DatapathTable *
Bce::tileTable(unsigned bits) const
{
    if (_tier != ExecTier::Tiered || !lut::DatapathTable::coversBits(bits))
        return nullptr;
    const lut::DatapathTable &t = lut::rom_datapath_table(bits);
    return t.productsExact() && t.histogramExact() ? &t : nullptr;
}

bool
Bce::foldTile(const std::int8_t *a, std::size_t m, std::size_t k,
              const lut::ColumnFeatures &bt, const lut::DatapathTable &t,
              unsigned bits)
{
    // Factored tile: each operand classified once, the tally one
    // column dot product per feature (see lut::ColumnFeatures).
    std::uint32_t maxA = 0;
    const simd::FeatureSums f = simd::fold_tile(a, m, k, bt, maxA);
    const std::uint64_t macs = std::uint64_t{m} * bt.rows * k;
    stats_.counts.romLookups += f.l;
    stats_.counts.shifts += f.p - f.o;
    stats_.counts.adds += f.p - f.z + macs; // + one lane add per MAC
    stats_.counts.cycles += t.cyclesFactor() * f.p;
    const std::uint32_t half = std::uint32_t{1} << (bits - 1);
    return macs > 0 && (maxA > half || bt.maxMagnitude > half);
}

std::uint32_t
Bce::legacyDot(const std::int8_t *a, const std::int8_t *b, std::size_t k,
               unsigned bits)
{
    std::uint32_t acc = 0;
    for (std::size_t p = 0; p < k; ++p) {
        const lut::MultResult r = lut::multiply_signed(
            a[p], b[p], bits, rom, lut::LookupSource::BceRom);
        stats_.counts += r.counts;
        acc += static_cast<std::uint32_t>(r.product);
        ++stats_.counts.adds;
    }
    return acc;
}

void
Bce::matmulTile(const std::int8_t *a, const std::int8_t *bt,
                std::int32_t *out, std::size_t m, std::size_t k,
                std::size_t n, unsigned bits,
                const lut::ColumnFeatures *btFeatures)
{
    if (_mode != BceMode::Matmul)
        bfree_panic("broadcastMac requires matmul mode");

    const std::uint64_t macs = std::uint64_t{m} * n * k;
    if (const lut::DatapathTable *t = tileTable(bits)) {
        if (!btFeatures) {
            simd::column_features(bt, n, k, tileB_);
            btFeatures = &tileB_;
        } else if (!btFeatures->describes(n, k)) {
            bfree_panic("matmulTile: BT features describe ",
                        btFeatures->rows, " x ", btFeatures->cols,
                        ", tile is ", n, " x ", k);
        }
        if (foldTile(a, m, k, *btFeatures, *t, bits))
            checkTileDomain(a, bt, m, k, n, bits);

        if (bits == 4) {
            // The one 4-bit product kernel takes packed weights.
            lut::pack_tile(bt, n, k, packedB_);
            simd::tile_products(a, packedB_, out, m, packedRows_);
            if (btFeatures->maxMagnitude >= 8)
                add_back_eights(a, bt, out, m, k, n);
        } else {
            simd::tile_products(a, bt, out, m, k, n, wideA_);
        }
    } else {
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                out[i * n + j] = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(out[i * n + j])
                    + legacyDot(a + i * k, bt + j * k, k, bits));
    }

    chargeCycles(macs * (bits / 4));
    stats_.macs += macs;
}

void
Bce::matmulTile(const std::int8_t *a, const lut::PackedTile &bt,
                std::int32_t *out, std::size_t m,
                const lut::ColumnFeatures &btFeatures)
{
    constexpr unsigned bits = 4;
    if (_mode != BceMode::Matmul)
        bfree_panic("broadcastMac requires matmul mode");
    const std::size_t k = bt.cols, n = bt.rows;
    if (!btFeatures.describes(n, k))
        bfree_panic("matmulTile: BT features describe ", btFeatures.rows,
                    " x ", btFeatures.cols, ", tile is ", n, " x ", k);

    if (const lut::DatapathTable *t = tileTable(bits)) {
        if (foldTile(a, m, k, btFeatures, *t, bits)) {
            // Packed weights all lie in [-8, 7], so the first offender
            // in (i, j, t) order is A's first, met against BT row 0.
            btRow_.resize(k);
            lut::unpack_tile_row(bt, 0, btRow_.data());
            checkTileDomain(a, btRow_.data(), m, k, 1, bits);
        }
        simd::tile_products(a, bt, out, m, packedRows_);
    } else {
        // Column by column: only A can hold an offender, so the first
        // one met is still the first in (i, j, t) order.
        btRow_.resize(k);
        for (std::size_t j = 0; j < n; ++j) {
            lut::unpack_tile_row(bt, j, btRow_.data());
            for (std::size_t i = 0; i < m; ++i)
                out[i * n + j] = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(out[i * n + j])
                    + legacyDot(a + i * k, btRow_.data(), k, bits));
        }
    }

    const std::uint64_t macs = std::uint64_t{m} * n * k;
    chargeCycles(macs * (bits / 4));
    stats_.macs += macs;
}

std::int32_t
Bce::accumulateIncoming(std::int32_t local, std::int32_t incoming)
{
    ++stats_.counts.adds;
    // The add shares the pipeline's writeback cycle; no extra cycle.
    return local + incoming;
}

double
Bce::evaluatePwl(const lut::PwlTable &table, double x)
{
    double y;
    evaluatePwlSpan(table, &x, 1, &y);
    return y;
}

void
Bce::evaluatePwlSpan(const lut::PwlTable &table, const double *x,
                     std::size_t n, double *y)
{
    simd::pwl_span(table, x, n, y);
    constexpr lut::MicroOpCounts one = lut::PwlTable::evaluationCounts();
    stats_.counts.lutLookups += n * one.lutLookups;
    stats_.counts.romLookups += n * one.romLookups;
    stats_.counts.shifts += n * one.shifts;
    stats_.counts.adds += n * one.adds;
    stats_.counts.cycles += n * one.cycles;
    // The alpha/beta fetch reads the sub-array LUT rows.
    stats_.specialLutEvents += n;
    chargeCycles(n * one.cycles);
}

double
Bce::divide(double x, double y, const lut::DivisionLut &div)
{
    lut::MicroOpCounts counts;
    const double q = div.divide(x, y, &counts);
    stats_.counts += counts;
    ++stats_.specialLutEvents;
    chargeCycles(counts.cycles);
    return q;
}

std::int32_t
Bce::maxReduce(const std::int32_t *values, std::size_t n)
{
    if (n == 0)
        bfree_panic("maxReduce over an empty window");
    std::int32_t best = values[0];
    for (std::size_t i = 1; i < n; ++i) {
        if (values[i] > best)
            best = values[i];
        ++stats_.counts.adds; // comparator shares the adder
    }
    chargeCycles(n > 1 ? n - 1 : 1);
    return best;
}

double
Bce::avgPool(const std::int32_t *values, std::size_t n,
             const lut::DivisionLut &div)
{
    if (n == 0)
        bfree_panic("avgPool over an empty window");
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += values[i];
        if (i > 0)
            ++stats_.counts.adds;
    }
    chargeCycles(n > 1 ? n - 1 : 1);
    const bool negative = sum < 0;
    const double q = divide(static_cast<double>(std::llabs(sum)),
                            static_cast<double>(n), div);
    return negative ? -q : q;
}

std::int32_t
Bce::requantize(std::int32_t acc, const lut::RequantScale &scale,
                std::int32_t zero_point, unsigned out_bits)
{
    const std::int32_t out =
        lut::requantize(acc, scale, zero_point, out_bits);
    // One ROM multiply, one shift, one saturating add.
    ++stats_.counts.romLookups;
    ++stats_.counts.shifts;
    ++stats_.counts.adds;
    chargeCycles(3);
    return out;
}

double
Bce::macsPerCycle(BceMode mode, unsigned bits)
{
    if (bits != 4 && bits != 8 && bits != 16)
        bfree_fatal("unsupported precision: ", bits);
    const double steps = bits / 4.0; // nibble passes per operand
    switch (mode) {
      case BceMode::Conv:
        return 1.0 / steps; // 0.5 MAC/cycle at 8-bit
      case BceMode::Matmul:
        return bce_vector_width / steps; // 4 MACs/cycle at 8-bit
      case BceMode::Special:
        return 0.0;
    }
    return 0.0;
}

} // namespace bfree::bce
