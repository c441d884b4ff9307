/**
 * @file
 * The BFree Compute Engine (Section III-A, Fig. 3/6/7).
 *
 * One BCE sits at the edge of each sub-array. It is a three-stage
 * in-order pipeline:
 *
 *   1. fetch/decode the config block (CB) metadata,
 *   2. generate LUT addresses from the operands and operation,
 *   3. accumulate/process partial results into the output registers.
 *
 * The model is simultaneously functional and timed: every operation
 * computes the exact integer result through the LUT datapath (operand
 * analyzer + 49-entry table) while accumulating cycle counts and
 * micro-op statistics. Functional correctness of the LUT path is
 * therefore tested by the same code that produces performance numbers.
 *
 * Execution is tiered (ExecTier). The Legacy tier runs the full operand
 * decomposition on every multiply — it is the reference. The Tiered
 * engine memoizes the decomposition into flat datapath tables (one per
 * mode/precision, seeded BY the legacy path over the whole operand
 * space) whose verified bilinear feature fold turns the tallies into
 * per-operand work: a conv span classifies each of its operand pairs,
 * and a matmul tile classifies each operand once, summing its class
 * features down the columns (the frozen weight side is summed once at
 * plan compile), so the whole tile's tally is one column dot product.
 * Both tiers are bit- and stat-exact by construction. The tables are
 * built once per process and shared read-only by every engine; only an
 * engine whose LUT rows were rewritten after the image load seeds
 * private conv tables.
 *
 * Energy is not booked per micro-op. The hot loops keep integer tallies
 * only (cycles per mode, ROM lookups, LUT-row reads, special-function
 * table events); flushEnergy() converts the tallies accumulated since
 * the previous flush into joules in bulk (mem/micro_op_energy) and
 * deposits them into the EnergyAccount. Callers must flush before
 * reading the account.
 *
 * Throughput matches the paper:
 *   - conv mode:   0.5 8-bit MAC/cycle  (1 MUX, 1 adder, 2 shifters)
 *   - matmul mode: 4   8-bit MAC/cycle  (switch MUX + hardwired ROM,
 *                                        8 multiplies every 2 cycles)
 *   - 4-bit operands double both rates.
 */

#ifndef BFREE_BCE_BCE_HH
#define BFREE_BCE_BCE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "config_block.hh"
#include "isa.hh"
#include "lut/datapath_table.hh"
#include "lut/division.hh"
#include "lut/fixed_point.hh"
#include "lut/mult_lut.hh"
#include "lut/operand_analyzer.hh"
#include "lut/packing.hh"
#include "lut/pwl.hh"
#include "mem/energy_account.hh"
#include "mem/micro_op_energy.hh"
#include "mem/subarray.hh"

namespace bfree::bce {

/** Datapath configuration of the BCE. */
enum class BceMode
{
    Conv,    ///< Fig. 6 sequential dot-product pipeline.
    Matmul,  ///< Fig. 7 broadcast pipeline with the hardwired ROM.
    Special, ///< Activation / pooling / division / requantize.
};

/** Width of the input/output register files (Fig. 7: 8 operands). */
constexpr unsigned bce_vector_width = 8;

/** Aggregate BCE statistics. All integers: the authoritative record the
 *  bulk energy conversion is derived from. */
struct BceStats
{
    std::uint64_t cycles = 0;
    std::uint64_t macs = 0;
    std::uint64_t configLoads = 0;
    lut::MicroOpCounts counts;
    /** cycles split per BceMode (Conv, Matmul, Special): each mode
     *  draws different datapath power. */
    std::array<std::uint64_t, 3> cyclesByMode{};
    std::uint64_t lutReadsPim = 0;   ///< Conv-path LUT reads, lut_en = 1.
    std::uint64_t lutReadsCache = 0; ///< Conv-path LUT reads, lut_en = 0.
    std::uint64_t specialLutEvents = 0; ///< PWL / division table fetches.

    /** Component-wise accumulate (batch runs merge per-input deltas). */
    BceStats &
    operator+=(const BceStats &o)
    {
        cycles += o.cycles;
        macs += o.macs;
        configLoads += o.configLoads;
        counts += o.counts;
        for (std::size_t i = 0; i < cyclesByMode.size(); ++i)
            cyclesByMode[i] += o.cyclesByMode[i];
        lutReadsPim += o.lutReadsPim;
        lutReadsCache += o.lutReadsCache;
        specialLutEvents += o.specialLutEvents;
        return *this;
    }

    /** Component-wise difference: the activity between two snapshots. */
    BceStats
    operator-(const BceStats &o) const
    {
        BceStats d;
        d.cycles = cycles - o.cycles;
        d.macs = macs - o.macs;
        d.configLoads = configLoads - o.configLoads;
        d.counts = counts - o.counts;
        for (std::size_t i = 0; i < cyclesByMode.size(); ++i)
            d.cyclesByMode[i] = cyclesByMode[i] - o.cyclesByMode[i];
        d.lutReadsPim = lutReadsPim - o.lutReadsPim;
        d.lutReadsCache = lutReadsCache - o.lutReadsCache;
        d.specialLutEvents = specialLutEvents - o.specialLutEvents;
        return d;
    }
};

/**
 * The per-sub-array compute engine.
 */
class Bce
{
  public:
    /**
     * @param subarray Sub-array this BCE is attached to; supplies the
     *                 LUT rows and weight storage.
     */
    Bce(mem::Subarray &subarray, const tech::TechParams &tech,
        mem::EnergyAccount &energy);

    /** Current datapath mode. */
    BceMode mode() const { return _mode; }

    /** Switch datapath mode (reconfiguration, takes one cycle). */
    void setMode(BceMode mode);

    /** Select the execution tier (exact either way; see file header). */
    void setTier(ExecTier tier) { _tier = tier; }

    /** Active execution tier. */
    ExecTier tier() const { return _tier; }

    /**
     * Load the 49-entry multiply image into the sub-array LUT rows;
     * required before conv-mode execution.
     */
    void loadMultLutImage();

    /** Stage 1: fetch and decode a config block (one cycle). */
    void loadConfig(const ConfigBlock &cb);

    /** Most recently decoded config block. */
    const ConfigBlock &config() const { return cb; }

    // ------------------------------------------------------------------
    // Arithmetic (functional + timed)
    // ------------------------------------------------------------------
    /**
     * Multiply two signed operands of @p bits precision through the
     * LUT path of the current mode: matmul mode fetches partial
     * products from the hardwired ROM; conv/special mode reads the
     * sub-array LUT rows.
     */
    std::int64_t multiply(std::int32_t a, std::int32_t b, unsigned bits);

    /**
     * Conv-mode dot product: weights are read from the sub-array at
     * @p weight_offset, inputs arrive from the stream register.
     * Returns the exact int32 dot product.
     */
    std::int32_t dotProduct(std::size_t weight_offset,
                            const std::int8_t *inputs, std::size_t len,
                            unsigned bits);

    /**
     * Conv-mode dot product over two host-resident operand spans (an
     * im2col patch against a filter row). Identical arithmetic and
     * accounting to dotProduct() minus the sub-array weight fetch:
     * per-element multiply micro-ops, len-1 accumulator adds,
     * len * bits/4 cycles, len MACs. The Tiered engine serves each
     * element from the memoized conv table.
     */
    std::int32_t dotProductSpan(const std::int8_t *weights,
                                const std::int8_t *inputs,
                                std::size_t len, unsigned bits);

    /**
     * Matmul-mode broadcast step: one A operand against @p n <= 8
     * B operands, accumulating into @p acc (Fig. 7). Consumes
     * bits/4 cycles regardless of n.
     */
    void broadcastMac(std::int32_t a, const std::int8_t *b, std::size_t n,
                      std::int32_t *acc, unsigned bits);

    /**
     * Matmul-mode dot product over two spans: a 1 x 1 matmulTile(),
     * exactly equivalent to len single-lane broadcastMac() steps (per
     * element: ROM micro-ops, one lane add, bits/4 cycles, one MAC).
     * Returns the int32 accumulator.
     */
    std::int32_t matmulDotSpan(const std::int8_t *a,
                               const std::int8_t *b, std::size_t len,
                               unsigned bits);

    /**
     * Blocked matmul tile: A is m x k row-major, BT is the transposed
     * B tile (n x k row-major, so both operands stream contiguously),
     * and out (m x n row-major) is accumulated in place:
     * out[i][j] += dot(A[i], BT[j]). Books exactly what m*n dot
     * products of len k booked one element at a time.
     *
     * The Tiered engine computes a plain int8 GEMM and the tally as
     * sum_t FA_t * FB_t per class feature (lut::ColumnFeatures).
     * @p btFeatures, when given, must be BT's column features (a
     * frozen weight tile's, computed once at plan compile); otherwise
     * they are computed per call. At 4 bits BT is nibble-packed into
     * engine scratch first and runs the packed-tile product kernel
     * (a +8, which packs as -8, is added back afterwards). Scratch is
     * grow-only and owned by the engine, so repeated tiles stop
     * allocating. At 4 bits an operand outside [-8, 8] raises the
     * analyzer's panic for the first offending pair in (i, j, t)
     * order, as the Legacy walk does.
     */
    void matmulTile(const std::int8_t *a, const std::int8_t *bt,
                    std::int32_t *out, std::size_t m, std::size_t k,
                    std::size_t n, unsigned bits,
                    const lut::ColumnFeatures *btFeatures = nullptr);

    /**
     * The same tile at 4 bits against a frozen nibble-packed BT
     * (bt.rows x bt.cols, k = bt.cols) and its column features. Books
     * exactly what the int8 overload books on the unpacked tile. The
     * Legacy tier unpacks one BT row at a time.
     */
    void matmulTile(const std::int8_t *a, const lut::PackedTile &bt,
                    std::int32_t *out, std::size_t m,
                    const lut::ColumnFeatures &btFeatures);

    /** Accumulate a partial sum arriving from the systolic neighbour. */
    std::int32_t accumulateIncoming(std::int32_t local,
                                    std::int32_t incoming);

    // ------------------------------------------------------------------
    // Special functions
    // ------------------------------------------------------------------
    /** Evaluate a PWL table (sigmoid/tanh/exp); two cycles. */
    double evaluatePwl(const lut::PwlTable &table, double x);

    /**
     * Evaluate @p table at @p n inputs into @p y (y == x allowed)
     * through the dispatched SIMD kernel: bit-identical to n
     * evaluatePwl() calls, and books n times one evaluation's tallies
     * in one step.
     */
    void evaluatePwlSpan(const lut::PwlTable &table, const double *x,
                         std::size_t n, double *y);

    /** LUT division (Section III-C2); four cycles. */
    double divide(double x, double y, const lut::DivisionLut &div);

    /** Max reduction over @p n values (ReLU / max pooling). */
    std::int32_t maxReduce(const std::int32_t *values, std::size_t n);

    /** Average pooling: accumulate then LUT-divide. */
    double avgPool(const std::int32_t *values, std::size_t n,
                   const lut::DivisionLut &div);

    /** gemmlowp requantization on the BCE datapath; three cycles. */
    std::int32_t requantize(std::int32_t acc,
                            const lut::RequantScale &scale,
                            std::int32_t zero_point, unsigned out_bits);

    // ------------------------------------------------------------------
    // Rates and statistics
    // ------------------------------------------------------------------
    /** MAC throughput per cycle for a mode/precision pair. */
    static double macsPerCycle(BceMode mode, unsigned bits);

    /** Cycles consumed so far. */
    std::uint64_t cycles() const { return stats_.cycles; }

    /** MACs executed so far. */
    std::uint64_t macs() const { return stats_.macs; }

    /** Full statistics. */
    const BceStats &stats() const { return stats_; }

    /**
     * Convert the integer tallies accumulated since the previous flush
     * into joules and deposit them into the EnergyAccount. Must be
     * called before the account is read; idempotent when nothing new
     * has been tallied.
     */
    void flushEnergy();

    /** The attached sub-array. */
    mem::Subarray &subarray() { return *sa; }

    /** Times this engine has (re)seeded a private conv-mode datapath
     *  table. Zero while the LUT rows hold the pristine image (the
     *  shared table serves); lets tests prove each LUT-row rewrite
     *  costs exactly one reseed per precision. */
    std::uint64_t convTableSeeds() const { return convSeeds_; }

  private:
    /** Tally @p n datapath cycles against the current mode. */
    void chargeCycles(std::uint64_t n);

    /** Record conv-path LUT-row reads (mode-dependent cost category). */
    void noteConvLutReads(std::uint64_t n);

    /** Signed multiply routed through the sub-array LUT rows;
     *  side-effect-free except for @p counts. */
    std::int64_t multiplyViaSubarrayLut(std::int32_t a, std::int32_t b,
                                        unsigned bits,
                                        lut::MicroOpCounts &counts);

    /**
     * Memoized conv-mode table for @p bits (4 or 8). While the LUT
     * generation still equals the one recorded at loadMultLutImage()
     * this is the process-wide pristine table; once loadLut or
     * scratchWrite has rewritten the rows it is a private table,
     * reseeded from the legacy path whenever the generation moves.
     */
    const lut::DatapathTable &convTable(unsigned bits);

    /** Raise the legacy analyzer panic for the first out-of-domain
     *  operand pair of a tile, in (i, j, t) order; returns when the
     *  tile has none. */
    void checkTileDomain(const std::int8_t *a, const std::int8_t *bt,
                         std::size_t m, std::size_t k, std::size_t n,
                         unsigned bits);

    /** The ROM table a tile's factored tally folds against, or null
     *  when the tile takes the Legacy walk. */
    const lut::DatapathTable *tileTable(unsigned bits) const;

    /** Book the factored tally of an m x k A tile against BT's column
     *  features; true when an operand may lie outside the domain (the
     *  caller must check it before any product). */
    bool foldTile(const std::int8_t *a, std::size_t m, std::size_t k,
                  const lut::ColumnFeatures &bt,
                  const lut::DatapathTable &t, unsigned bits);

    /** One Legacy-walk dot product of two rows of @p k operands,
     *  analyzer micro-ops and one lane add per element booked. */
    std::uint32_t legacyDot(const std::int8_t *a, const std::int8_t *b,
                            std::size_t k, unsigned bits);

    mem::Subarray *sa;
    tech::TechParams tech;
    mem::EnergyAccount *energy;
    lut::MultLut rom; ///< Hardwired multiply ROM inside the BCE.
    ConfigBlock cb;
    BceMode _mode = BceMode::Conv;
    ExecTier _tier = ExecTier::Legacy;
    BceStats stats_;
    mem::BceEnergyTallies flushed_; ///< Tallies already converted.
    lut::DatapathTable convTable4_, convTable8_; ///< Private, post-rewrite.
    /** Grow-only matmul-tile scratch: BT's column features when the
     *  caller has none, one widened A row, an int8 BT packed at 4
     *  bits, one padded A row for the packed kernel, and one unpacked
     *  BT row for the Legacy walk and the domain check. */
    lut::ColumnFeatures tileB_;
    std::vector<std::int16_t> wideA_;
    lut::PackedTile packedB_;
    std::vector<std::int8_t> packedRow_;
    std::vector<std::int8_t> btRow_;
    /** Grow-only conv scratch: the weights dotProduct reads out of the
     *  sub-array. */
    std::vector<std::uint8_t> weightBuf_;
    std::uint64_t pristineGeneration_ = 0; ///< LUT generation at image load.
    std::uint64_t convSeeds_ = 0; ///< Private conv-table (re)seed count.
    bool multLutLoaded = false;
};

} // namespace bfree::bce

#endif // BFREE_BCE_BCE_HH
