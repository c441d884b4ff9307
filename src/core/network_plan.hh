/**
 * @file
 * Ahead-of-time execution plans for the functional LUT datapath.
 *
 * A NetworkPlan is compiled once per (network, weights, precision)
 * triple and then amortized across every subsequent inference. Compile
 * time does all the work that does not depend on the input:
 *
 *  - every layer's weights are pushed through dnn::SymQuant once and
 *    frozen in the exact layout the steady-state kernels consume
 *    (im2col filter-bank order for conv, the transposed-B GEMM tile
 *    for FC / LSTM / attention projections);
 *  - the symmetric weight scales are chosen (dnn::choose_sym reads only
 *    the peak magnitude, so the choice is layout-independent);
 *  - a dry planning pass sizes one dnn::TensorArena: two ping-ponged
 *    activation buffers plus the worst single layer's scratch. The
 *    steady-state run then makes zero heap allocations.
 *
 * Because SymQuant::q is a pure function, executing from the frozen
 * values is bit-identical to the legacy path that re-quantized on every
 * call — the parity tests assert this float-for-float. A plan is
 * immutable once compiled and safe to share across threads; it must be
 * recompiled whenever the network topology, the weight values, or the
 * precision changes (there is no partial invalidation — see DESIGN.md
 * section 11).
 */

#ifndef BFREE_CORE_NETWORK_PLAN_HH
#define BFREE_CORE_NETWORK_PLAN_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "dnn/network.hh"
#include "dnn/quantize.hh"
#include "dnn/tensor_arena.hh"
#include "sim/random.hh"
#include "verify/diagnostic.hh"

namespace bfree::core {

/** Weights of one layer (flat, reference layout). */
struct LayerWeights
{
    std::vector<float> weights;
    std::vector<float> bias;
};

/** Per-layer weights for a whole network. */
using NetworkWeights = std::vector<LayerWeights>;

/** Draw reproducible random weights for every layer of @p net. */
NetworkWeights random_weights(const dnn::Network &net, sim::Rng &rng,
                              double scale = 0.5);

/** One layer frozen into a plan. */
struct PlannedLayer
{
    /** The layer descriptor, copied so the plan is self-contained. */
    dnn::Layer layer;

    /**
     * Frozen weight tensors. Conv / FC / LSTM layers have one entry
     * (conv in filter-bank order, FC and LSTM already in the
     * transposed-B tile layout the blocked GEMM consumes — the LSTM
     * row-major gate matrix IS that tile, which is what made the legacy
     * per-call transpose redundant). Attention has four entries: the
     * Q / K / V / O projections, each frozen transposed.
     */
    std::vector<dnn::QuantizedWeights> frozen;

    /** Bias terms, copied. */
    std::vector<float> bias;

    std::size_t inElems = 0;  ///< Activation elements consumed.
    std::size_t outElems = 0; ///< Activation elements produced.

    /** Arena scratch bytes this layer allocates while it runs. */
    std::size_t scratchBytes = 0;
};

/** Compile-time accounting of a plan (also the --plan-stats payload). */
struct PlanStats
{
    /** Total arena reservation a steady-state run needs. */
    std::size_t arenaBytes = 0;
    /** The two ping-ponged activation buffers' share of the arena. */
    std::size_t activationBytes = 0;
    /** Worst single layer's scratch (the rest of the arena). */
    std::size_t peakScratchBytes = 0;
    /** Elements of the largest activation crossing a layer boundary. */
    std::size_t maxActivationElems = 0;
    /** Bytes of frozen quantized weights held by the plan. */
    std::size_t frozenWeightBytes = 0;
    /** Weight values pushed through SymQuant::q at compile time. */
    std::uint64_t frozenValues = 0;
};

/**
 * A compiled, immutable execution plan. Move-only; share by reference.
 */
class NetworkPlan
{
  public:
    NetworkPlan() = default;

    NetworkPlan(NetworkPlan &&o) noexcept { *this = std::move(o); }

    NetworkPlan &
    operator=(NetworkPlan &&o) noexcept
    {
        net_ = std::move(o.net_);
        bits_ = o.bits_;
        layers_ = std::move(o.layers_);
        stats_ = o.stats_;
        inElems_ = o.inElems_;
        outElems_ = o.outElems_;
        outShape_ = std::move(o.outShape_);
        diagnostics_ = std::move(o.diagnostics_);
        served_.store(o.served_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
        return *this;
    }

    /**
     * Compile @p net with @p weights at @p bits precision. Weight
     * layouts and sizes are validated here (fatal on mismatch), so the
     * steady-state path can run unchecked. With @p verify the whole
     * plan is additionally audited by verify::PlanVerifier and the
     * findings recorded in diagnostics() — a plan with
     * !diagnostics().ok() must not be served.
     */
    static NetworkPlan compile(const dnn::Network &net,
                               const NetworkWeights &weights,
                               unsigned bits = 8, bool verify = true);

    /**
     * The dry planning pass alone: shapes, per-layer scratch and the
     * arena size, without touching any weights. compile() uses this
     * same pass, so estimate(net, bits).arenaBytes always equals
     * compile(net, w, bits).stats().arenaBytes.
     */
    static PlanStats estimate(const dnn::Network &net, unsigned bits = 8);

    /**
     * Non-fatal estimate (benches / table probes): returns false when
     * @p net cannot be planned — a branched topology whose flattened
     * layer list does not chain shape-wise, or a layer kind the
     * functional path does not execute — instead of aborting.
     */
    static bool tryEstimate(const dnn::Network &net, unsigned bits,
                            PlanStats &out);

    const dnn::Network &network() const { return net_; }
    unsigned bits() const { return bits_; }

    /** Findings of the verify-on-compile audit (empty when compiled
     *  with verify = false). */
    const verify::VerifyReport &diagnostics() const
    {
        return diagnostics_;
    }
    const std::vector<PlannedLayer> &layers() const { return layers_; }
    const PlanStats &stats() const { return stats_; }

    /**
     * Arena bytes one walk over @p rows inputs needs: both activation
     * buffers hold every row, FC layers hold every row's scratch at
     * once, other layers one row's. arenaBytes(1) ==
     * stats().arenaBytes, to the byte.
     */
    std::size_t arenaBytes(std::size_t rows) const;

    /** Activation elements the input must supply. */
    std::size_t inputElems() const { return inElems_; }

    /** Activation elements the final layer produces. */
    std::size_t outputElems() const { return outElems_; }

    /** Tensor shape of the final output (legacy run() parity). */
    const std::vector<std::size_t> &outputShape() const
    {
        return outShape_;
    }

    /**
     * Inferences served from this plan so far — how many runs the
     * one-time quantization has been amortized over.
     */
    std::uint64_t
    runsServed() const
    {
        return served_.load(std::memory_order_relaxed);
    }

    /** Record one served inference (thread-safe; called by executors). */
    void
    noteRun() const
    {
        served_.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    dnn::Network net_{"", dnn::FeatureShape{}};
    unsigned bits_ = 8;
    std::vector<PlannedLayer> layers_;
    PlanStats stats_;
    std::size_t inElems_ = 0;
    std::size_t outElems_ = 0;
    std::vector<std::size_t> outShape_;
    verify::VerifyReport diagnostics_;

    /** Amortization counter; mutable telemetry, not plan state. */
    mutable std::atomic<std::uint64_t> served_{0};
};

} // namespace bfree::core

#endif // BFREE_CORE_NETWORK_PLAN_HH
