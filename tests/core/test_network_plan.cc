/**
 * @file
 * Execution-plan parity and steady-state guarantees: a compiled
 * NetworkPlan (weights frozen once) must match the legacy per-call
 * quantization path float-for-float, the batch runner must be
 * bit-identical to a sequential loop for any thread count, the
 * steady-state path must make zero heap allocations, executors
 * racing the first build of the shared datapath tables must match a
 * sequential run bit for bit, and a conv plan must feed the datapath
 * exactly the per-element patch oracle's bytes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bce/bce.hh"
#include "bce/simd_kernels.hh"
#include "core/functional.hh"
#include "dnn/model_zoo.hh"
#include "mem/subarray.hh"
#include "patch_oracle.hh"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// g_heap_allocs, so a test can assert that a code region allocated
// nothing. Counting is the only change; allocation still comes from
// malloc and failure still throws.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void *
counted_alloc(std::size_t n)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc{};
}
} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(a),
                                     (n + static_cast<std::size_t>(a) - 1)
                                         / static_cast<std::size_t>(a)
                                         * static_cast<std::size_t>(a)))
        return p;
    throw std::bad_alloc{};
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace bfree::core;
using namespace bfree::dnn;

namespace {

void
expect_stats_eq(const bfree::bce::BceStats &a,
                const bfree::bce::BceStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.configLoads, b.configLoads);
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups);
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups);
    EXPECT_EQ(a.counts.shifts, b.counts.shifts);
    EXPECT_EQ(a.counts.adds, b.counts.adds);
    EXPECT_EQ(a.counts.cycles, b.counts.cycles);
    for (std::size_t m = 0; m < a.cyclesByMode.size(); ++m)
        EXPECT_EQ(a.cyclesByMode[m], b.cyclesByMode[m]) << "mode " << m;
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim);
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache);
    EXPECT_EQ(a.specialLutEvents, b.specialLutEvents);
}

void
expect_bitwise_eq(const FloatTensor &a, const FloatTensor &b)
{
    ASSERT_EQ(a.shape(), b.shape());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(float)));
}

/** Outputs, statistics and per-category energy of one executor that
 *  ran a fixed list of plans in order. */
struct PlanRunRecord
{
    std::vector<FloatTensor> outputs;
    bfree::bce::BceStats stats;
    std::vector<double> joules;
};

PlanRunRecord
run_plans(FunctionalExecutor &exec,
          const std::vector<const NetworkPlan *> &plans,
          const std::vector<FloatTensor> &inputs)
{
    PlanRunRecord rec;
    for (std::size_t i = 0; i < plans.size(); ++i)
        rec.outputs.push_back(exec.run(*plans[i], inputs[i]).output);
    rec.stats = exec.stats();
    const bfree::mem::EnergyAccount &account = exec.energy();
    for (std::size_t c = 0; c < bfree::mem::num_energy_categories; ++c)
        rec.joules.push_back(account.joules(
            static_cast<bfree::mem::EnergyCategory>(c)));
    return rec;
}

} // namespace

// Defined first so that, in an unfiltered run of this binary, its
// threads are the first users of every shared datapath table: they race
// the lazy one-time builds, not tables some earlier test left warm.
TEST(NetworkPlanShared, ConcurrentFirstUseMatchesSequentialRun)
{
    Network fc("fc8", {64, 1, 1});
    fc.add(make_fc("fc1", 64, 32));
    fc.add(make_activation("act1", LayerKind::Sigmoid, {32, 1, 1}));
    fc.add(make_fc("fc2", 32, 10));
    Network conv("conv8", {3, 8, 8});
    conv.add(make_conv("c3x3", {3, 8, 8}, 8, 3, 1, 1));
    conv.add(make_conv("c2x2s2", {8, 8, 8}, 4, 2, 2, 0));
    const Network mixed = make_tiny_cnn();

    bfree::sim::Rng rng(31);
    const NetworkWeights fcW = random_weights(fc, rng);
    const NetworkWeights convW = random_weights(conv, rng);
    const NetworkWeights mixedW = random_weights(mixed, rng);
    // verify = false: the plan audit would build the ROM tables here,
    // before the threads start.
    const NetworkPlan fc8 = NetworkPlan::compile(fc, fcW, 8, false);
    const NetworkPlan conv8 = NetworkPlan::compile(conv, convW, 8, false);
    const NetworkPlan mixed4 =
        NetworkPlan::compile(mixed, mixedW, 4, false);
    const std::vector<const NetworkPlan *> plans = {&fc8, &conv8,
                                                    &mixed4};

    std::vector<FloatTensor> inputs;
    for (const Network *net : std::vector<const Network *>{&fc, &conv,
                                                           &mixed}) {
        const FeatureShape s = net->input();
        FloatTensor in({s.c, s.h, s.w});
        in.fillUniform(rng, -1.0, 1.0);
        inputs.push_back(std::move(in));
    }

    constexpr std::size_t workers = 8;
    std::vector<PlanRunRecord> got(workers);
    {
        std::latch start(workers);
        std::vector<std::thread> threads;
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back([&, w] {
                FunctionalExecutor exec;
                start.arrive_and_wait();
                got[w] = run_plans(exec, plans, inputs);
            });
        for (std::thread &t : threads)
            t.join();
    }

    FunctionalExecutor seq;
    const PlanRunRecord want = run_plans(seq, plans, inputs);
    for (std::size_t w = 0; w < workers; ++w) {
        SCOPED_TRACE("worker " + std::to_string(w));
        ASSERT_EQ(got[w].outputs.size(), want.outputs.size());
        for (std::size_t i = 0; i < want.outputs.size(); ++i)
            expect_bitwise_eq(got[w].outputs[i], want.outputs[i]);
        expect_stats_eq(got[w].stats, want.stats);
        EXPECT_EQ(got[w].joules, want.joules);
    }
}

TEST(NetworkPlan, EstimateMatchesCompileSizing)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(11);
    const NetworkWeights weights = random_weights(net, rng);

    for (unsigned bits : {4u, 8u, 16u}) {
        const PlanStats est = NetworkPlan::estimate(net, bits);
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        EXPECT_EQ(est.arenaBytes, plan.stats().arenaBytes) << bits;
        EXPECT_EQ(est.activationBytes, plan.stats().activationBytes);
        EXPECT_EQ(est.peakScratchBytes, plan.stats().peakScratchBytes);
        EXPECT_EQ(est.maxActivationElems,
                  plan.stats().maxActivationElems);
        EXPECT_GT(plan.stats().frozenValues, 0u);
        EXPECT_GT(plan.stats().frozenWeightBytes, 0u);
        EXPECT_EQ(plan.inputElems(), net.input().elements());
        EXPECT_EQ(plan.layers().size(), net.layers().size());
    }
}

TEST(NetworkPlan, TinyCnnPlanMatchesLegacyBitwise)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(2024);
    const NetworkWeights weights = random_weights(net, rng);

    for (unsigned bits : {4u, 8u, 16u}) {
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        for (int trial = 0; trial < 3; ++trial) {
            FloatTensor input({1, 8, 8});
            input.fillUniform(rng, 0.0, 1.0);

            // The plan (weights frozen once, reused across trials)
            // against the legacy entry (fresh quantization per call).
            FunctionalExecutor planned;
            FunctionalExecutor legacy;
            const FunctionalResult a = planned.run(plan, input);
            const FunctionalResult b =
                legacy.run(net, input, weights, bits);

            expect_bitwise_eq(a.output, b.output);
            expect_stats_eq(a.stats, b.stats);
            EXPECT_EQ(planned.energy().total(), legacy.energy().total());
        }
        EXPECT_EQ(plan.runsServed(), 3u);
    }
}

TEST(NetworkPlan, LstmStepPlanMatchesLegacyBitwise)
{
    const Network net = make_lstm(6, 12, 4);
    ASSERT_EQ(net.layers().size(), 1u);
    const Layer &cell = net.layers()[0];

    bfree::sim::Rng rng(31);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    LstmState planned_state;
    planned_state.h.assign(12, 0.0f);
    planned_state.c.assign(12, 0.0f);
    LstmState legacy_state = planned_state;

    FunctionalExecutor planned;
    FunctionalExecutor legacy;
    for (int t = 0; t < 4; ++t) {
        std::vector<float> x(6);
        for (float &v : x)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
        planned_state = planned.runLstmStep(plan, 0, x, planned_state);
        legacy_state =
            legacy.runLstmStep(cell, x, legacy_state, weights[0], 8);
        EXPECT_EQ(planned_state.h, legacy_state.h) << "t=" << t;
        EXPECT_EQ(planned_state.c, legacy_state.c) << "t=" << t;
    }
    expect_stats_eq(planned.stats(), legacy.stats());
}

TEST(NetworkPlan, AttentionPlanMatchesLegacyBitwise)
{
    Network net("attn-net", {1, 6, 8});
    net.add(make_attention("attn", 6, 8, 1));

    bfree::sim::Rng rng(41);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    FloatTensor input({6, 8});
    input.fillUniform(rng, -1.0, 1.0);

    FunctionalExecutor planned;
    FunctionalExecutor legacy;
    const FloatTensor a = planned.runAttention(plan, 0, input);
    const FloatTensor b =
        legacy.runAttention(net.layers()[0], input, weights[0], 8);

    expect_bitwise_eq(a, b);
    expect_stats_eq(planned.stats(), legacy.stats());
}

TEST(NetworkPlan, QMatmulFrozenMatchesPerCallFreeze)
{
    bfree::sim::Rng rng(43);
    FloatTensor a({5, 7});
    a.fillUniform(rng, -1.0, 1.0);
    std::vector<float> w(7 * 3);
    for (float &v : w)
        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));

    for (unsigned bits : {8u, 16u}) {
        const QuantizedWeights frozen =
            freeze_weights_transposed(w.data(), 7, 3, bits);
        FunctionalExecutor e1;
        FunctionalExecutor e2;
        const FloatTensor got1 = e1.qMatmulFrozen(a, frozen, 7, 3);
        const FloatTensor got2 = e2.qMatmul(a, w.data(), 7, 3, bits);
        expect_bitwise_eq(got1, got2);
        expect_stats_eq(e1.stats(), e2.stats());
    }
}

TEST(NetworkPlanBatch, BitIdenticalToSequentialAtAnyThreadCount)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(77);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    std::vector<FloatTensor> inputs;
    for (int i = 0; i < 7; ++i) {
        FloatTensor in({1, 8, 8});
        in.fillUniform(rng, 0.0, 1.0);
        inputs.push_back(std::move(in));
    }

    // Sequential reference: one long-lived executor, parked after every
    // input exactly like the batch runner, summing per-input deltas.
    std::vector<FloatTensor> seq_outputs;
    bfree::bce::BceStats seq_stats;
    {
        FunctionalExecutor exec;
        for (const FloatTensor &in : inputs) {
            const bfree::bce::BceStats before = exec.stats();
            seq_outputs.push_back(exec.run(plan, in).output);
            exec.parkDatapath();
            seq_stats += exec.stats() - before;
        }
    }

    double energy_at_one = -1.0;
    for (unsigned threads : {1u, 2u, 8u}) {
        BatchOptions opts;
        opts.threads = threads;
        const BatchResult got = run_functional_batch(plan, inputs, opts);

        ASSERT_EQ(got.outputs.size(), inputs.size()) << threads;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            expect_bitwise_eq(got.outputs[i], seq_outputs[i]);
        expect_stats_eq(got.stats, seq_stats);

        if (energy_at_one < 0.0)
            energy_at_one = got.energy.total();
        else
            EXPECT_EQ(got.energy.total(), energy_at_one) << threads;
    }
    EXPECT_GE(plan.runsServed(), inputs.size());
}

TEST(NetworkPlan, SteadyStateMakesZeroHeapAllocations)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(55);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    FloatTensor input({1, 8, 8});
    input.fillUniform(rng, 0.0, 1.0);
    std::vector<float> output(plan.outputElems());

    FunctionalExecutor exec;
    // First run sizes the arena and seeds the memoized datapath tables.
    exec.runInto(plan, input.data(), plan.inputElems(), output.data(),
                 output.size());

    const std::uint64_t before =
        g_heap_allocs.load(std::memory_order_relaxed);
    const std::uint64_t arena_before = exec.arena().allocCount();
    exec.runInto(plan, input.data(), plan.inputElems(), output.data(),
                 output.size());
    const std::uint64_t after =
        g_heap_allocs.load(std::memory_order_relaxed);

    EXPECT_EQ(after - before, 0u)
        << "steady-state runInto must not touch the heap";
    // The scratch really is served by the arena, not skipped.
    EXPECT_GT(exec.arena().allocCount(), arena_before);
    // And the planning pass sized it exactly: the run fills the arena
    // to the byte, never beyond.
    EXPECT_EQ(exec.arena().capacity(), plan.stats().arenaBytes);
    EXPECT_EQ(exec.arena().highWater(), plan.stats().arenaBytes);
}

TEST(BceDotProduct, WarmCallsMakeZeroHeapAllocations)
{
    // dotProduct is the per-node call of every detailed-grid wave: once
    // its weight scratch has grown, reading the weights out of the
    // sub-array must not touch the heap, at 8 or 16 bits, in either tier.
    bfree::tech::CacheGeometry geom;
    bfree::tech::TechParams tech;
    bfree::mem::EnergyAccount energy;
    bfree::mem::Subarray sa(geom, tech, energy);
    bfree::bce::Bce bce(sa, tech, energy);
    bce.loadMultLutImage();
    bce.setMode(bfree::bce::BceMode::Conv);

    const std::size_t len = 64;
    std::vector<std::uint8_t> weights(2 * len);
    std::vector<std::int8_t> inputs(len);
    bfree::sim::Rng rng(9);
    for (auto &w : weights)
        w = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    for (auto &x : inputs)
        x = static_cast<std::int8_t>(rng.uniformInt(-128, 127));
    sa.write(0, weights.data(), weights.size());

    for (const auto tier : {bfree::bce::ExecTier::Legacy,
                            bfree::bce::ExecTier::Tiered}) {
        bce.setTier(tier);
        for (const unsigned bits : {8u, 16u}) {
            // The warm-up call grows the scratch and seeds the tables.
            (void)bce.dotProduct(0, inputs.data(), len, bits);
            const std::uint64_t before =
                g_heap_allocs.load(std::memory_order_relaxed);
            for (int i = 0; i < 10; ++i)
                (void)bce.dotProduct(0, inputs.data(), len, bits);
            EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed)
                          - before,
                      0u)
                << bits << "-bit, tier " << static_cast<int>(tier);
        }
    }
}

TEST(NetworkPlan, WarmLstmStepAllocatesOnlyTheReturnedState)
{
    // The step's [x, h] row, quantized row, accumulators and gate
    // pre-activations come from the arena: a warm step allocates the
    // returned h and c and nothing else, at 4 bits (packed tile) and
    // at 8 bits (int8 tile).
    const Network net = make_lstm(39, 96, 4);
    bfree::sim::Rng rng(61);
    const NetworkWeights weights = random_weights(net, rng);
    std::vector<float> x(39);
    for (float &v : x)
        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    for (const unsigned bits : {4u, 8u}) {
        const NetworkPlan plan = NetworkPlan::compile(net, weights, bits);
        FunctionalExecutor exec;
        LstmState s;
        s.h.assign(96, 0.0f);
        s.c.assign(96, 0.0f);
        s = exec.runLstmStep(plan, 0, x, s); // sizes arena and scratch
        s = exec.runLstmStep(plan, 0, x, s);
        const std::uint64_t before =
            g_heap_allocs.load(std::memory_order_relaxed);
        LstmState next = exec.runLstmStep(plan, 0, x, s);
        EXPECT_EQ(g_heap_allocs.load(std::memory_order_relaxed) - before,
                  2u)
            << bits << "-bit";
        EXPECT_EQ(next.h.size(), 96u);
    }
}

TEST(NetworkPlan, FourBitMatmulTilesAreNibblePacked)
{
    // The zoo's LSTM-1024 at 4 bits: the 4096 x 1063 gate tile holds
    // no int8 bytes, only nibbles, every row padded to 1088 weights.
    {
        const Network net = make_lstm();
        bfree::sim::Rng rng(3);
        const NetworkPlan plan =
            NetworkPlan::compile(net, random_weights(net, rng), 4, false);
        const QuantizedWeights &w = plan.layers()[0].frozen[0];
        EXPECT_TRUE(w.q8.empty());
        EXPECT_TRUE(w.packed());
        EXPECT_EQ(w.q4.rows, 4096u);
        EXPECT_EQ(w.q4.cols, 1063u);
        EXPECT_EQ(w.frozenBytes(), 4096u * 544u);
        EXPECT_EQ(w.count(), 4096u * 1063u);
        EXPECT_TRUE(w.features.describes(4096, 1063));
        EXPECT_EQ(plan.stats().frozenWeightBytes, 4096u * 544u);
    }

    // FC, LSTM and attention tiles of ragged widths, packed one
    // feature block at a time: the nibbles unpack to exactly the int8
    // freeze and the features are the whole tile's; conv stays int8.
    Network net("mixed4", {1, 6, 6});
    net.add(make_conv("conv", {1, 6, 6}, 2, 3, 1, 1));
    net.add(make_fc("fc", 72, 150));
    bfree::sim::Rng rng(7);
    NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 4);
    EXPECT_FALSE(plan.layers()[0].frozen[0].packed());
    EXPECT_EQ(plan.layers()[0].frozen[0].q8.size(), 2u * 9u);

    Network lstm = make_lstm(45, 70, 2);
    const NetworkWeights lw = random_weights(lstm, rng);
    const NetworkPlan lplan = NetworkPlan::compile(lstm, lw, 4);
    Network attn("attn4", {1, 4, 72});
    attn.add(make_attention("attn", 4, 72, 1));
    const NetworkWeights aw = random_weights(attn, rng);
    const NetworkPlan aplan = NetworkPlan::compile(attn, aw, 4);

    const auto expect_tile = [](const QuantizedWeights &got,
                                const QuantizedWeights &ref, std::size_t n,
                                std::size_t k, const char *what) {
        ASSERT_TRUE(got.packed()) << what;
        EXPECT_TRUE(got.q8.empty()) << what;
        EXPECT_EQ(got.scale.scale, ref.scale.scale) << what;
        std::vector<std::int8_t> row(k);
        for (std::size_t j = 0; j < n; ++j) {
            bfree::lut::unpack_tile_row(got.q4, j, row.data());
            ASSERT_EQ(0, std::memcmp(row.data(), ref.q8.data() + j * k, k))
                << what << " row " << j;
        }
        bfree::lut::ColumnFeatures f;
        bfree::bce::simd::column_features(ref.q8.data(), n, k, f);
        EXPECT_EQ(f.sums, got.features.sums) << what;
        EXPECT_EQ(f.maxMagnitude, got.features.maxMagnitude) << what;
    };
    expect_tile(plan.layers()[1].frozen[0],
                freeze_weights(weights[1].weights.data(), 72 * 150, 4), 150,
                72, "fc");
    expect_tile(lplan.layers()[0].frozen[0],
                freeze_weights(lw[0].weights.data(), 4 * 70 * 115, 4), 280,
                115, "lstm");
    for (unsigned b = 0; b < 4; ++b)
        expect_tile(aplan.layers()[0].frozen[b],
                    freeze_weights_transposed(
                        aw[0].weights.data() + b * 72 * 72, 72, 72, 4),
                    72, 72, "attention");
}

TEST(NetworkPlan, HighWaterTracksThePlanActuallyRun)
{
    // Re-running a smaller plan through the same executor must report
    // that plan's own peak, not a stale high-water from a larger one —
    // the arena ledger is per-plan, so the mark resets per run.
    Network big("big", {3, 8, 8});
    big.add(make_conv("b", {3, 8, 8}, 4, 3, 1, 1));
    Network small("small", {4, 4, 4});
    small.add(make_conv("s", {4, 4, 4}, 2, 2, 2, 0));
    bfree::sim::Rng rng(13);
    const NetworkWeights bw = random_weights(big, rng);
    const NetworkWeights sw = random_weights(small, rng);
    const NetworkPlan bp = NetworkPlan::compile(big, bw, 8);
    const NetworkPlan sp = NetworkPlan::compile(small, sw, 8);
    ASSERT_LT(sp.stats().arenaBytes, bp.stats().arenaBytes);

    FunctionalExecutor exec;
    FloatTensor bin({3, 8, 8});
    bin.fillUniform(rng, -1.0, 1.0);
    std::vector<float> bout(bp.outputElems());
    exec.runInto(bp, bin.data(), bp.inputElems(), bout.data(),
                 bout.size());
    EXPECT_EQ(exec.arena().highWater(), bp.stats().arenaBytes);

    FloatTensor sin({4, 4, 4});
    sin.fillUniform(rng, -1.0, 1.0);
    std::vector<float> sout(sp.outputElems());
    exec.runInto(sp, sin.data(), sp.inputElems(), sout.data(),
                 sout.size());
    EXPECT_EQ(exec.arena().highWater(), sp.stats().arenaBytes)
        << "high-water must shrink to the smaller plan's own peak";
}

TEST(NetworkPlan, GeneratedConvMatchesPatchOracleBitwise)
{
    // One-conv plans on seeded shapes at 8 and 4 bits. The executor's
    // elided front end must feed the datapath exactly the patches the
    // per-element oracle builds: a test loop that hands oracle patches
    // to dotProductSpan in runConvInto's (oh, ow, k) order on a twin
    // datapath reproduces outputs, statistics and every energy
    // category bit for bit. One executor runs every plan in turn, so
    // each plan's scratch lands on bytes an earlier plan left behind,
    // and each run's arena peak must equal what its plan reserved.
    for (const unsigned bits : {8u, 4u}) {
        FunctionalExecutor exec;
        bfree::tech::CacheGeometry geom;
        bfree::tech::TechParams tech;
        bfree::mem::EnergyAccount account;
        bfree::mem::Subarray sa(geom, tech, account);
        bfree::bce::Bce bce(sa, tech, account);
        bce.setTier(bfree::bce::ExecTier::Tiered);
        bce.loadMultLutImage();

        bfree::sim::Rng rng(bits == 8 ? 404 : 505);
        for (unsigned i = 0; i < 8; ++i) {
            const Layer l = bfree::test::generated_conv(rng, i);
            SCOPED_TRACE(std::to_string(bits) + "-bit " + l.name);
            Network net("gen", l.input);
            net.add(l);
            const NetworkWeights weights = random_weights(net, rng);
            const NetworkPlan plan = NetworkPlan::compile(net, weights,
                                                          bits);
            FloatTensor input({l.input.c, l.input.h, l.input.w});
            input.fillUniform(rng, -1.0, 1.0);

            const FunctionalResult got = exec.run(plan, input);
            EXPECT_EQ(exec.arena().highWater(), plan.stats().arenaBytes);

            const PlannedLayer &pl = plan.layers()[0];
            const QuantizedWeights &fw = pl.frozen[0];
            const SymQuant qi = choose_sym(input.data(), input.size(),
                                           bits);
            const FeatureShape o = l.outputShape();
            const std::size_t patch_len =
                std::size_t(l.input.c) * l.kernelH * l.kernelW;
            const std::size_t outHW = std::size_t(o.h) * o.w;
            std::vector<std::int8_t> patch(patch_len);
            FloatTensor want({o.c, o.h, o.w});
            bce.setMode(bfree::bce::BceMode::Conv);
            for (unsigned oh = 0; oh < o.h; ++oh) {
                for (unsigned ow = 0; ow < o.w; ++ow) {
                    bfree::test::reference_patch(l, qi, input.data(), oh,
                                                 ow, patch.data());
                    for (unsigned k = 0; k < o.c; ++k) {
                        const std::int32_t acc = bce.dotProductSpan(
                            fw.q8.data() + std::size_t(k) * patch_len,
                            patch.data(), patch_len, bits);
                        want.data()[std::size_t(k) * outHW
                                    + std::size_t(oh) * o.w + ow] =
                            static_cast<float>(acc * fw.scale.scale
                                               * qi.scale)
                            + pl.bias[k];
                    }
                }
            }

            expect_bitwise_eq(got.output, want);
            expect_stats_eq(got.stats, bce.stats());
            bce.flushEnergy();
            const bfree::mem::EnergyAccount &ea = exec.energy();
            for (std::size_t c = 0;
                 c < bfree::mem::num_energy_categories; ++c) {
                const auto cat =
                    static_cast<bfree::mem::EnergyCategory>(c);
                const double a = ea.joules(cat);
                const double b = account.joules(cat);
                EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a))
                    << "energy category " << c;
            }
        }
    }
}

TEST(NetworkPlanDeath, CompileRejectsWeightCountMismatch)
{
    const Network net = make_tiny_cnn();
    EXPECT_DEATH((void)NetworkPlan::compile(net, NetworkWeights{}, 8),
                 "weight entries");
}

TEST(NetworkPlanDeath, RunIntoRejectsWrongElementCounts)
{
    const Network net = make_tiny_cnn();
    bfree::sim::Rng rng(3);
    const NetworkWeights weights = random_weights(net, rng);
    const NetworkPlan plan = NetworkPlan::compile(net, weights, 8);

    FunctionalExecutor exec;
    std::vector<float> in(plan.inputElems() - 1);
    std::vector<float> out(plan.outputElems());
    EXPECT_DEATH(exec.runInto(plan, in.data(), in.size(), out.data(),
                              out.size()),
                 "input");
}
