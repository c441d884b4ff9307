/**
 * @file
 * Batch exactness of the multi-row walk on warm workers: BatchWorkers
 * and run_functional_batch must reproduce a sequential loop of runInto
 * + parkDatapath on one executor — outputs, every BceStats field and
 * every energy category bit for bit — on generated FC / activation /
 * softmax chains and on the TinyCNN (conv + FC), at 4 and 8 bits, for
 * batch sizes 1 to 9 at 1 to 4 threads. One BatchWorkers per thread
 * count serves every plan and batch size in turn, so each batch runs
 * on executors an earlier batch left warm. A ServeEngine that replays
 * one trace twice must give the bytes a fresh engine gives.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "core/network_plan.hh"
#include "dnn/layer.hh"
#include "dnn/model_zoo.hh"
#include "dnn/network.hh"
#include "mem/micro_op_energy.hh"
#include "serve/server.hh"
#include "serve/trace.hh"
#include "sim/random.hh"

using namespace bfree;

namespace {

/**
 * A seeded FC chain: two to four FC layers of 1 to 200 features (odd
 * widths included), each but the last followed by a ReLU, sigmoid or
 * tanh, and a softmax at the end of every other chain.
 */
dnn::Network
generated_chain(sim::Rng &rng, unsigned index)
{
    const unsigned in = static_cast<unsigned>(rng.uniformInt(1, 200));
    dnn::Network net("chain" + std::to_string(index), {in, 1, 1});
    const int fcs = static_cast<int>(rng.uniformInt(2, 4));
    unsigned width = in;
    for (int l = 0; l < fcs; ++l) {
        const unsigned out = static_cast<unsigned>(rng.uniformInt(1, 200));
        net.add(dnn::make_fc("fc" + std::to_string(l), width, out));
        width = out;
        if (l + 1 == fcs)
            break;
        constexpr dnn::LayerKind acts[] = {dnn::LayerKind::Relu,
                                           dnn::LayerKind::Sigmoid,
                                           dnn::LayerKind::Tanh};
        net.add(dnn::make_activation("act" + std::to_string(l),
                                     acts[rng.uniformInt(0, 2)],
                                     {width, 1, 1}));
    }
    if (index % 2 == 1)
        net.add(dnn::make_activation("prob", dnn::LayerKind::Softmax,
                                     {width, 1, 1}));
    return net;
}

/** What a batch (or the sequential loop standing in for one) gave. */
struct Record
{
    std::vector<dnn::FloatTensor> outputs;
    bce::BceStats stats;
    mem::EnergyAccount energy;
};

/** The reference: one executor, runInto then parkDatapath per input.
 *  Its energy is what that executor's one flush deposits for the
 *  summed tallies (the flush starts from zero tallies). */
Record
sequential(const core::NetworkPlan &plan,
           const std::vector<dnn::FloatTensor> &inputs)
{
    Record rec;
    core::FunctionalExecutor exec;
    const bce::BceStats before = exec.stats();
    for (const dnn::FloatTensor &in : inputs) {
        dnn::FloatTensor out(plan.outputShape());
        exec.runInto(plan, in.data(), in.size(), out.data(), out.size());
        exec.parkDatapath();
        rec.outputs.push_back(std::move(out));
    }
    rec.stats = exec.stats() - before;
    mem::BceEnergyTallies t;
    t.romLookups = rec.stats.counts.romLookups;
    t.lutReadsPim = rec.stats.lutReadsPim;
    t.lutReadsCache = rec.stats.lutReadsCache;
    t.specialLutEvents = rec.stats.specialLutEvents;
    t.cyclesByMode = rec.stats.cyclesByMode;
    mem::MicroOpEnergyModel(tech::TechParams{}).deposit(t, rec.energy);
    return rec;
}

void
expect_same(const Record &want, const core::BatchResult &got,
            const std::string &ctx)
{
    ASSERT_EQ(want.outputs.size(), got.outputs.size()) << ctx;
    for (std::size_t i = 0; i < want.outputs.size(); ++i) {
        ASSERT_EQ(want.outputs[i].size(), got.outputs[i].size()) << ctx;
        EXPECT_EQ(0, std::memcmp(want.outputs[i].data(),
                                 got.outputs[i].data(),
                                 want.outputs[i].size() * sizeof(float)))
            << ctx << " output " << i;
    }
    const bce::BceStats &a = want.stats, &b = got.stats;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.macs, b.macs) << ctx;
    EXPECT_EQ(a.configLoads, b.configLoads) << ctx;
    EXPECT_EQ(a.counts.lutLookups, b.counts.lutLookups) << ctx;
    EXPECT_EQ(a.counts.romLookups, b.counts.romLookups) << ctx;
    EXPECT_EQ(a.counts.shifts, b.counts.shifts) << ctx;
    EXPECT_EQ(a.counts.adds, b.counts.adds) << ctx;
    EXPECT_EQ(a.counts.cycles, b.counts.cycles) << ctx;
    for (std::size_t m = 0; m < a.cyclesByMode.size(); ++m)
        EXPECT_EQ(a.cyclesByMode[m], b.cyclesByMode[m])
            << ctx << " mode " << m;
    EXPECT_EQ(a.lutReadsPim, b.lutReadsPim) << ctx;
    EXPECT_EQ(a.lutReadsCache, b.lutReadsCache) << ctx;
    EXPECT_EQ(a.specialLutEvents, b.specialLutEvents) << ctx;
    for (std::size_t c = 0; c < mem::num_energy_categories; ++c) {
        const auto cat = static_cast<mem::EnergyCategory>(c);
        const double x = want.energy.joules(cat);
        const double y = got.energy.joules(cat);
        EXPECT_EQ(0, std::memcmp(&x, &y, sizeof x))
            << ctx << " energy category " << c;
    }
}

/** Every plan of the sweep: generated chains and the TinyCNN. */
std::vector<core::NetworkPlan>
sweep_plans(unsigned bits)
{
    std::vector<core::NetworkPlan> plans;
    sim::Rng rng(bits == 8 ? 8080 : 4040);
    for (unsigned i = 0; i < 4; ++i) {
        const dnn::Network net = generated_chain(rng, i);
        plans.push_back(core::NetworkPlan::compile(
            net, core::random_weights(net, rng), bits));
    }
    const dnn::Network cnn = dnn::make_tiny_cnn();
    plans.push_back(core::NetworkPlan::compile(
        cnn, core::random_weights(cnn, rng), bits));
    return plans;
}

} // namespace

TEST(BatchWorkers, MatchSequentialRunsBitwise)
{
    for (const unsigned bits : {8u, 4u}) {
        const std::vector<core::NetworkPlan> plans = sweep_plans(bits);
        std::vector<std::unique_ptr<core::BatchWorkers>> workers;
        for (unsigned threads = 1; threads <= 4; ++threads) {
            core::BatchOptions opts;
            opts.threads = threads;
            workers.push_back(std::make_unique<core::BatchWorkers>(opts));
        }
        sim::Rng rng(bits * 31);
        for (const core::NetworkPlan &plan : plans) {
            for (std::size_t n = 1; n <= 9; ++n) {
                std::vector<dnn::FloatTensor> inputs;
                std::vector<const dnn::FloatTensor *> ptrs;
                for (std::size_t i = 0; i < n; ++i) {
                    dnn::FloatTensor in({plan.inputElems()});
                    in.fillUniform(rng, -2.0, 2.0);
                    inputs.push_back(std::move(in));
                }
                for (const dnn::FloatTensor &in : inputs)
                    ptrs.push_back(&in);
                const Record want = sequential(plan, inputs);
                for (unsigned threads = 1; threads <= 4; ++threads) {
                    const std::string ctx =
                        plan.network().name() + "@"
                        + std::to_string(bits) + " n=" + std::to_string(n)
                        + " threads=" + std::to_string(threads);
                    expect_same(want, workers[threads - 1]->run(plan, ptrs),
                                ctx + " warm");
                    core::BatchOptions opts;
                    opts.threads = threads;
                    expect_same(want,
                                core::run_functional_batch(plan, inputs,
                                                           opts),
                                ctx + " one-off");
                    if (HasFailure())
                        return;
                }
            }
        }
    }
}

TEST(BatchWorkers, WarmServeEngineRepeatsAFreshEngine)
{
    dnn::Network net("serve-mlp", {48, 1, 1});
    net.add(dnn::make_fc("fc1", 48, 96));
    net.add(dnn::make_activation("act1", dnn::LayerKind::Tanh,
                                 {96, 1, 1}));
    net.add(dnn::make_fc("fc2", 96, 16));
    sim::Rng rng(606);
    const core::NetworkPlan plan =
        core::NetworkPlan::compile(net, core::random_weights(net, rng), 8);
    const serve::ArrivalTrace trace = serve::poisson_trace(rng, 40, 400);

    serve::ServeConfig cfg;
    cfg.queueDepth = 64;
    cfg.batcher.maxBatch = 7;
    cfg.batcher.windowTicks = 900;
    cfg.threads = 3; // uneven chunks
    const auto replay_bytes = [&](serve::ServeEngine &engine) {
        engine.stats().resetAll();
        const serve::ReplayReport rep = engine.replay(trace);
        std::string bytes = rep.batchLog;
        for (const dnn::FloatTensor &out : rep.outputs)
            bytes.append(reinterpret_cast<const char *>(out.data()),
                         out.size() * sizeof(float));
        const bce::BceStats &s = rep.datapathStats;
        for (const std::uint64_t v :
             {s.cycles, s.macs, s.configLoads, s.counts.lutLookups,
              s.counts.romLookups, s.counts.shifts, s.counts.adds,
              s.counts.cycles, s.cyclesByMode[0], s.cyclesByMode[1],
              s.cyclesByMode[2], s.lutReadsPim, s.lutReadsCache,
              s.specialLutEvents})
            bytes += " " + std::to_string(v);
        bytes.append(reinterpret_cast<const char *>(&rep.energyJoules),
                     sizeof rep.energyJoules);
        return bytes;
    };

    serve::ServeEngine warm(plan, cfg);
    const std::string first = replay_bytes(warm);
    const std::string second = replay_bytes(warm);
    serve::ServeEngine fresh(plan, cfg);
    EXPECT_EQ(first, second) << "a warm engine's second replay differs";
    EXPECT_EQ(replay_bytes(fresh), second)
        << "a warm engine's replay differs from a fresh engine's";
    // The trace must form multi-row batches for the walk to matter.
    std::size_t largest = 0;
    for (std::size_t at = first.find(" size "); at != std::string::npos;
         at = first.find(" size ", at + 1))
        largest = std::max<std::size_t>(largest,
                                        std::stoul(first.substr(at + 6)));
    EXPECT_GE(largest, 4u);
}

TEST(BatchWorkers, WalkArenaIsSizedForItsRows)
{
    // One executor walks every plan at every row count: the arena's
    // peak is exactly what NetworkPlan::arenaBytes(m) reserves, and the
    // one-row size is the planned one to the byte.
    for (const unsigned bits : {8u, 4u}) {
        const std::vector<core::NetworkPlan> plans = sweep_plans(bits);
        core::FunctionalExecutor exec;
        sim::Rng rng(bits * 7);
        for (const core::NetworkPlan &plan : plans) {
            EXPECT_EQ(plan.arenaBytes(1), plan.stats().arenaBytes);
            for (std::size_t m = 1; m <= 9; ++m) {
                std::vector<std::vector<float>> in(
                    m, std::vector<float>(plan.inputElems()));
                std::vector<std::vector<float>> out(
                    m, std::vector<float>(plan.outputElems()));
                std::vector<const float *> ins;
                std::vector<float *> outs;
                for (std::size_t r = 0; r < m; ++r) {
                    for (float &v : in[r])
                        v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
                    ins.push_back(in[r].data());
                    outs.push_back(out[r].data());
                }
                exec.runBatchInto(plan, ins.data(), outs.data(), m);
                EXPECT_EQ(exec.arena().highWater(), plan.arenaBytes(m))
                    << plan.network().name() << "@" << bits << " m=" << m;
            }
        }
    }
}
