/**
 * @file
 * Full-cache detailed timing simulation: all geometry.numSlices LLC
 * slice grids computing one layer cooperatively (Fig. 12-14 scale).
 *
 * Filters are partitioned across slices in contiguous blocks; every
 * slice runs the same 2-D systolic grid as DetailedSliceSim over its
 * block of filters. Inputs stream along the inter-slice ring: slice
 * s + 1 sees each wave interSliceHopCycles after slice s, so slice s's
 * grid is simply the single-slice model shifted by
 * s * interSliceHopCycles, and the whole layer drains at
 *
 *     max over active s of
 *         s * slice_hop + waves * cps + (cols_s - 1 + rows - 1) * hop
 *
 * (detailed_cache_formula).
 *
 * Each slice has its own EventQueue, and the queues run on a
 * sim::ShardedEngine with the inter-slice hop as the lookahead; at
 * threads = 1 that is the serial path. Input-streaming hand-offs are
 * the only cross-shard traffic and cross exactly at epoch barriers, and
 * energy is accumulated per slice and merged in slice order, so
 * outputs, cycle counts, event counts and energy are identical for any
 * --threads.
 */

#ifndef BFREE_MAP_DETAILED_CACHE_SIM_HH
#define BFREE_MAP_DETAILED_CACHE_SIM_HH

#include <cstdint>
#include <vector>

#include "dnn/network.hh"
#include "dnn/quantize.hh"
#include "dnn/tensor.hh"
#include "map/detailed_slice_sim.hh"
#include "mem/energy_account.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace bfree::map {

/** Knobs for a full-cache detailed run. */
struct DetailedCacheOptions
{
    /** Grid rows per slice column; 0 means subarraysPerSubBank
     *  (clamped to the dot-product length). */
    unsigned rows = 0;
    unsigned bits = 8;
    /** Worker threads for the sharded engine; 0 = hardware. */
    unsigned threads = 0;
};

/** Result of a full-cache detailed run. */
struct DetailedCacheResult
{
    /** accs[filter][wave]: exact int32 dot products. */
    std::vector<std::vector<std::int32_t>> accs;
    /** Dequantized layer output (runConv / runFc only). */
    dnn::FloatTensor output{};
    /** Whole-cache drain time in sub-array cycles (includes the
     *  inter-slice streaming offsets). */
    std::uint64_t cycles = 0;
    /** Per-active-slice drain cycles, slice order. */
    std::vector<std::uint64_t> sliceCycles;
    /** Events dispatched across all queues. */
    std::uint64_t events = 0;
    /** Epoch barriers crossed and cross-shard messages delivered. */
    std::uint64_t epochs = 0;
    std::uint64_t crossMessages = 0;
    /** Per-slice energy merged in slice order. */
    mem::EnergyAccount energy;
    unsigned activeSlices = 0;
    unsigned waves = 0;
};

/**
 * Contiguous block partition of @p filters across @p slices: every
 * slice gets filters/slices, the remainder going to the lowest-index
 * slices. Returns one count per slice (zeros when filters < slices).
 */
std::vector<unsigned> partition_filters(unsigned filters,
                                        unsigned slices);

/**
 * Closed-form whole-cache drain time in cycles; @p cols_per_slice from
 * partition_filters (zero-column slices are idle).
 */
std::uint64_t detailed_cache_formula(
    unsigned rows, const std::vector<unsigned> &cols_per_slice,
    unsigned waves, std::uint64_t cps, unsigned hop, unsigned slice_hop);

/**
 * Drives one layer through every LLC slice at detailed timing.
 */
class DetailedCacheSim
{
  public:
    DetailedCacheSim(const tech::CacheGeometry &geom,
                     const tech::TechParams &tech,
                     const DetailedCacheOptions &opts = {});

    /**
     * Exact integer GEMM: filters[f] (all the same length) against
     * inputs[w], distributed over the whole cache. The workhorse under
     * runConv / runFc; exposed for benches and tests.
     */
    DetailedCacheResult
    runGemm(const std::vector<std::vector<std::int8_t>> &filters,
            const std::vector<std::vector<std::int8_t>> &inputs);

    /**
     * One conv layer against a frozen filter bank (the primary entry:
     * a plan freezes the [outC][inC][kh][kw] weights once and every
     * detailed run reuses them). Input quantization is per run (the
     * same dnn::choose_sym the functional executor uses), im2col waves
     * in (oh, ow) order, filters across slices, then dequantize + bias.
     */
    DetailedCacheResult runConv(const dnn::Layer &layer,
                                const dnn::FloatTensor &input,
                                const dnn::QuantizedWeights &weights,
                                const std::vector<float> &bias);

    /**
     * One conv layer from float weights: freezes the filter bank at
     * this sim's precision and delegates (bit-identical — SymQuant::q
     * is pure). @p weights is the flat [outC][inC][kh][kw] bank.
     */
    DetailedCacheResult runConv(const dnn::Layer &layer,
                                const dnn::FloatTensor &input,
                                const std::vector<float> &weights,
                                const std::vector<float> &bias);

    /**
     * One FC layer against frozen weights: the quantized input vector
     * is the single wave, frozen rows [outFeatures][inFeatures] are
     * the filters.
     */
    DetailedCacheResult runFc(const dnn::Layer &layer,
                              const dnn::FloatTensor &input,
                              const dnn::QuantizedWeights &weights,
                              const std::vector<float> &bias);

    /** One FC layer from float weights: freeze once, delegate. */
    DetailedCacheResult runFc(const dnn::Layer &layer,
                              const dnn::FloatTensor &input,
                              const std::vector<float> &weights,
                              const std::vector<float> &bias);

    /** Grid rows a GEMM of dot-length @p k would use. */
    unsigned rowsFor(std::size_t k) const;

    const DetailedCacheOptions &options() const { return opts; }

  private:
    tech::CacheGeometry geom;
    tech::TechParams tech;
    DetailedCacheOptions opts;
};

} // namespace bfree::map

#endif // BFREE_MAP_DETAILED_CACHE_SIM_HH
