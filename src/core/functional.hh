/**
 * @file
 * Functional quantized inference through the BFree LUT datapath.
 *
 * Every multiply in this executor goes through a real Bce instance —
 * the 49-entry LUT image in a Subarray (conv mode) or the hardwired ROM
 * (matmul mode) — so it demonstrates, end to end, that the LUT
 * decomposition computes exact integer products and that the PWL /
 * division tables approximate the nonlinearities well enough for
 * inference. The tests compare its output against the float reference
 * executors under quantization tolerance.
 *
 * Execution is plan-driven (core::NetworkPlan): weights are quantized
 * once at plan compile and the steady-state path serves all scratch
 * from one pre-sized TensorArena with zero heap allocations. The
 * legacy one-shot entry points remain and simply compile a throwaway
 * plan, so they are bit-identical to the plan path by construction.
 * One walk serves m inputs at once: every FC layer runs as one m-row
 * tile (each row at its own activation scale), so its frozen weights
 * are read once per walk instead of once per input; every other layer
 * runs its one-input code once per row. BatchWorkers keeps a pool and
 * one executor per worker warm across batches and feeds each worker a
 * contiguous chunk of inputs as one such walk; run_functional_batch()
 * is a one-off BatchWorkers. Outputs, statistics and energy are
 * bit-identical to the sequential loop at any thread count. The
 * memoized datapath tables behind the tiered BCE are seeded once per
 * process and shared read-only by every executor, so a fresh
 * executor's first run pays no table seeding (see
 * lut/datapath_table.hh).
 */

#ifndef BFREE_CORE_FUNCTIONAL_HH
#define BFREE_CORE_FUNCTIONAL_HH

#include <memory>
#include <vector>

#include "bce/bce.hh"
#include "core/network_plan.hh"
#include "dnn/network.hh"
#include "dnn/quantize.hh"
#include "dnn/reference.hh"
#include "dnn/tensor.hh"
#include "dnn/tensor_arena.hh"
#include "lut/division.hh"
#include "lut/pwl.hh"
#include "mem/subarray.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"
#include "tech/geometry.hh"
#include "tech/tech_params.hh"

namespace bfree::core {

/** Result of a functional run. */
struct FunctionalResult
{
    dnn::FloatTensor output;
    bce::BceStats stats; ///< Aggregate BCE activity.
};

/**
 * Executes a network functionally on one Bce + Subarray pair.
 */
class FunctionalExecutor
{
  public:
    /**
     * @param tier Execution tier of the underlying BCE. Tiered (the
     *             default) serves steady-state MACs from memoized
     *             datapath tables; Legacy runs the full scalar
     *             decomposition. Both produce bit-identical outputs,
     *             statistics and energy.
     */
    FunctionalExecutor(const tech::CacheGeometry &geom = {},
                       const tech::TechParams &tech = {},
                       bce::ExecTier tier = bce::ExecTier::Tiered);

    /**
     * Run a compiled plan on @p input. The steady-state entry point:
     * no weight quantization, no heap allocation after the first call
     * (which sizes the arena; the first use in the process also builds
     * the shared datapath tables).
     */
    FunctionalResult run(const NetworkPlan &plan,
                         const dnn::FloatTensor &input);

    /**
     * The allocation-free core of run(): executes @p plan reading
     * @p inElems floats from @p input and writing @p outElems floats
     * to @p output (both caller-owned). All intermediate activations
     * ping-pong between two arena buffers.
     */
    void runInto(const NetworkPlan &plan, const float *input,
                 std::size_t inElems, float *output,
                 std::size_t outElems);

    /**
     * Run @p plan over @p m inputs in one walk: inputs[i] holds
     * plan.inputElems() floats, outputs[i] takes plan.outputElems().
     * The datapath must start parked and is left parked. Outputs, BCE
     * statistics and energy are bitwise what m calls of runInto() each
     * followed by parkDatapath() produce: the walk takes one input's
     * mode switches, so it books the other m - 1 inputs' switches
     * (one cycle each, in the mode switched to) on top.
     */
    void runBatchInto(const NetworkPlan &plan, const float *const *inputs,
                      float *const *outputs, std::size_t m);

    /**
     * One-shot convenience: compile a throwaway plan for @p net and run
     * it. Bit-identical to the plan path (it IS the plan path); prefer
     * compiling once when running more than one input.
     */
    FunctionalResult run(const dnn::Network &net,
                         const dnn::FloatTensor &input,
                         const NetworkWeights &weights,
                         unsigned bits = 8);

    /**
     * One LSTM timestep from a compiled plan: gate matvecs on the
     * matmul-mode BCE against the frozen gate tile, sigmoid/tanh
     * through the PWL tables. @p layerIndex selects the LstmCell layer
     * inside the plan.
     */
    dnn::LstmState runLstmStep(const NetworkPlan &plan,
                               std::size_t layerIndex,
                               const std::vector<float> &x,
                               const dnn::LstmState &prev);

    /**
     * One-shot LSTM timestep; freezes the gate weights and delegates.
     * Weights are packed [i, f, g, o] x [input + hidden] as in
     * dnn::reference_lstm_step.
     */
    dnn::LstmState runLstmStep(const dnn::Layer &layer,
                               const std::vector<float> &x,
                               const dnn::LstmState &prev,
                               const LayerWeights &w, unsigned bits = 8);

    /**
     * Single-head self-attention from a compiled plan: Q/K/V/O
     * projections against the frozen tiles, the row softmax through
     * the exp table + LUT division.
     */
    dnn::FloatTensor runAttention(const NetworkPlan &plan,
                                  std::size_t layerIndex,
                                  const dnn::FloatTensor &input);

    /**
     * One-shot self-attention; freezes the four projections and
     * delegates. Weights are packed [wq | wk | wv | wo], each d x d.
     */
    dnn::FloatTensor runAttention(const dnn::Layer &layer,
                                  const dnn::FloatTensor &input,
                                  const LayerWeights &w,
                                  unsigned bits = 8);

    /**
     * Quantized matrix product through the broadcast datapath:
     * out[m][n] = a[m][k] * w[k][n], with w supplied row-major.
     * Freezes w transposed and delegates to qMatmulFrozen.
     */
    dnn::FloatTensor qMatmul(const dnn::FloatTensor &a, const float *w,
                             std::size_t k, std::size_t n,
                             unsigned bits);

    /**
     * The same product against an already-frozen transposed tile
     * @p wt (n x k, as produced by dnn::freeze_weights_transposed —
     * or any row-major [n][k] matrix frozen in place). Only the
     * activation side is quantized per call.
     */
    dnn::FloatTensor qMatmulFrozen(const dnn::FloatTensor &a,
                                   const dnn::QuantizedWeights &wt,
                                   std::size_t k, std::size_t n);

    /**
     * Return the datapath to conv mode (its construction state). The
     * batch runner parks the datapath after every input so each
     * input's stats delta is independent of its position in the batch
     * — the keystone of thread-count-invariant batch statistics.
     */
    void parkDatapath() { bce.setMode(bce::BceMode::Conv); }

    /** The scratch arena (sizing/zero-allocation introspection). */
    const dnn::TensorArena &arena() const { return arena_; }

    /** BCE statistics accumulated so far. */
    const bce::BceStats &stats() const { return bce.stats(); }

    /**
     * Energy accumulated by the functional datapath so far. Flushes
     * the BCE's deferred integer tallies into the account first, so
     * the returned reference is up to date.
     */
    const mem::EnergyAccount &
    energy()
    {
        bce.flushEnergy();
        return account;
    }

    /** Execution tier of the underlying BCE. */
    bce::ExecTier tier() const { return bce.tier(); }

  private:
    /**
     * The one plan walk: @p m inputs, each activation row at a fixed
     * stride in the two ping-pong buffers. FC layers take all m rows
     * at once; every other layer runs once per row. runInto() is its
     * m = 1 case.
     */
    void walkInto(const NetworkPlan &plan, const float *const *inputs,
                  float *const *outputs, std::size_t m);

    /** One row through a layer other than FC. */
    void runRowInto(const PlannedLayer &pl, unsigned bits,
                    const float *in, float *out);

    /** Conv over im2col patches, frozen filter bank, arena scratch. */
    void runConvInto(const PlannedLayer &pl, unsigned bits,
                     const float *in, float *out);

    /** @p m FC rows, row r at in/out + r * @p stride: one m-row tile
     *  at <= 8 bits, one broadcast walk per row above. */
    void runFcInto(const PlannedLayer &pl, unsigned bits, const float *in,
                   float *out, std::size_t m, std::size_t stride);

    void runActivationInto(const PlannedLayer &pl, const float *in,
                           float *out);

    void runPoolInto(const PlannedLayer &pl, const float *in,
                     float *out);

    void runSoftmaxInto(const PlannedLayer &pl, const float *in,
                        float *out);

    /**
     * out[m][n] = a[m][k] x the frozen n x k tile @p wt, dequantized;
     * the quantized rows and accumulators come from the arena, which
     * the caller has reserved.
     */
    void matmulFrozenInto(const float *a, std::size_t m,
                          const dnn::QuantizedWeights &wt, std::size_t k,
                          std::size_t n, float *out);

    /** Shared LSTM step against a frozen gate tile; its scratch comes
     *  from the arena. */
    dnn::LstmState lstmStepImpl(const dnn::Layer &layer,
                                const std::vector<float> &x,
                                const dnn::LstmState &prev,
                                const dnn::QuantizedWeights &gates,
                                const std::vector<float> &bias);

    /** Shared attention block against four frozen projections. */
    dnn::FloatTensor attentionImpl(const dnn::Layer &layer,
                                   const dnn::FloatTensor &input,
                                   const dnn::QuantizedWeights *proj);

    tech::CacheGeometry geom;
    tech::TechParams tech;
    mem::EnergyAccount account;
    mem::Subarray subarray;
    bce::Bce bce;
    lut::DivisionLut divisionLut;
    lut::PwlTable sigmoidTable;
    lut::PwlTable tanhTable;
    lut::PwlTable expTable;
    dnn::TensorArena arena_;
    /** Grow-only: each FC row's activation scale. */
    std::vector<double> rowScale_;
};

/** Knobs for a batched plan run. */
struct BatchOptions
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned threads = 0;
    tech::CacheGeometry geom{};
    tech::TechParams tech{};
    bce::ExecTier tier = bce::ExecTier::Tiered;
};

/** Result of a batched plan run. */
struct BatchResult
{
    /** Per-input outputs, input order. */
    std::vector<dnn::FloatTensor> outputs;
    /** Summed per-input BCE activity, accumulated in input order —
     *  bit-identical for any thread count. */
    bce::BceStats stats;
    /** Datapath energy of the batch, converted from the summed integer
     *  tallies in one bulk deposit. Excludes the per-worker LUT-image
     *  load (a fixed per-executor setup cost, not batch work). */
    mem::EnergyAccount energy;
};

/**
 * Warm batch workers: a work-stealing pool and one executor per worker
 * that live across run() calls, so a batch pays neither thread spawn
 * nor executor construction, and each arena keeps its size. A batch of
 * n inputs is cut into min(threads, n) contiguous chunks of
 * ceil(n / chunks) inputs; chunk c runs on executor c as one
 * FunctionalExecutor::runBatchInto walk. Outputs, statistics and
 * energy are bit-identical to a sequential loop for any thread count,
 * and do not depend on what earlier batches ran.
 */
class BatchWorkers
{
  public:
    explicit BatchWorkers(const BatchOptions &opts = {});

    /** Run @p plan over borrowed @p inputs (see run_functional_batch);
     *  null or mis-sized inputs are fatal. */
    BatchResult run(const NetworkPlan &plan,
                    const std::vector<const dnn::FloatTensor *> &inputs);

  private:
    BatchOptions opts_;
    sim::ThreadPool pool_;
    /** Executor per chunk index, built on the first batch that needs
     *  it, inside its task. */
    std::vector<std::unique_ptr<FunctionalExecutor>> execs_;
};

/**
 * Run @p plan over every input on a one-off BatchWorkers: contiguous
 * chunks across the work-stealing pool, each one multi-row walk on its
 * own executor (the datapath tables are shared process-wide).
 * Outputs, statistics and energy are bit-identical to a sequential
 * loop for any thread count.
 */
BatchResult run_functional_batch(const NetworkPlan &plan,
                                 const std::vector<dnn::FloatTensor> &inputs,
                                 const BatchOptions &opts = {});

/**
 * The dispatch hook the serving layer uses: the same batched run over
 * borrowed inputs (no copies — the caller keeps ownership, e.g. of
 * tensors still held by queued requests). Null pointers are fatal.
 * Identical determinism guarantee to the owning overload, which
 * delegates here.
 */
BatchResult
run_functional_batch(const NetworkPlan &plan,
                     const std::vector<const dnn::FloatTensor *> &inputs,
                     const BatchOptions &opts = {});

} // namespace bfree::core

#endif // BFREE_CORE_FUNCTIONAL_HH
