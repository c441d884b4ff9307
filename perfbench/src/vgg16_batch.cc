/**
 * @file
 * vgg16-batch: the zoo's full VGG-16 (224x224, 15.5 GMAC/image) at 8
 * bits, one batch of one image per worker through
 * run_functional_batch, repeated closed-loop. Nearly all of its time
 * is the 8-bit conv kernel and its front end; per-call set-up is a
 * tiny share of a batch, so this is the workload that bypasses
 * set-up work.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/functional.hh"
#include "core/network_plan.hh"
#include "dnn/model_zoo.hh"
#include "sim/random.hh"
#include "workloads.hh"

namespace perfbench {

using namespace bfree;

namespace {

constexpr std::uint64_t kSalt = 0x7616;
/** Set-ups timed per run (each ~0.8 s); setup_s is their lower decile. */
constexpr int kSetupReps = 5;

/** Repeated batches of one timed loop. */
struct BatchLoop
{
    Samples batches;
    core::BatchResult first;
    bool repeatable = true; ///< Every batch matched the first exactly.
};

/** Run batches for @p seconds, appending to @p loop. */
void
run_batches(BatchLoop &loop, const core::NetworkPlan &plan,
            const std::vector<dnn::FloatTensor> &inputs, unsigned threads,
            double seconds, Tracer &tracer, bool interleave)
{
    core::BatchOptions bo;
    bo.threads = threads;
    Tracer off(false);
    const Clock::time_point t0 = Clock::now();
    do {
        const std::size_t i = loop.batches.size();
        const bool on = traced_iteration(tracer, interleave, i);
        Tracer &t = on ? tracer : off;
        const Clock::time_point c0 = Clock::now();
        const int span = t.begin("core.run_functional_batch", i);
        core::BatchResult br = core::run_functional_batch(plan, inputs, bo);
        t.end(span, "\"images\":" + std::to_string(inputs.size())
                        + ",\"cycles\":" + std::to_string(br.stats.cycles));
        loop.batches.add(1e3 * seconds_since(c0), on);
        if (i == 0) {
            loop.first = std::move(br);
            continue;
        }
        loop.repeatable = loop.repeatable
                          && same_stats(br.stats, loop.first.stats)
                          && br.energy.total() == loop.first.energy.total();
        for (std::size_t k = 0; k < inputs.size(); ++k)
            loop.repeatable = loop.repeatable
                              && same_bits(br.outputs[k],
                                           loop.first.outputs[k]);
    } while (loop_more(t0, seconds, tracer, interleave,
                       loop.batches.size()));
}

double
images_per_s(const BatchLoop &loop, std::size_t images)
{
    return 1e3 * static_cast<double>(images)
           / lower_decile(loop.batches.ms);
}

/**
 * The per-layer probes: compile and audit apart, a fresh executor's
 * cold and warm run, and the image run as a chain of one-layer plans
 * timed layer by layer. (Batch-call overhead is probed on serve-ffn:
 * here it would be ~10 ms inside the noise of a 5 s run.)
 */
void
probe(const Options &opts, const dnn::Network &net,
      const core::NetworkWeights &weights, const core::NetworkPlan &plan,
      const std::vector<dnn::FloatTensor> &inputs, double imagesPerS,
      Tracer &tracer, Report &report)
{
    const std::string w = "vgg16-batch";
    probe_compile(net, weights, 8, w, tracer, report);

    const dnn::FloatTensor &x = inputs[0];
    core::FunctionalExecutor exec;
    core::FunctionalResult cold, warm;
    report.perLayer("core.cold_run_ms." + w,
                    tracer.timed("core.FunctionalExecutor.run", 0,
                                 [&] { cold = exec.run(plan, x); }),
                    "ms");
    report.perLayer("core.warm_run_ms." + w,
                    tracer.timed("core.FunctionalExecutor.run", 0,
                                 [&] { warm = exec.run(plan, x); }),
                    "ms");
    report.check(same_bits(cold.output, warm.output),
                 "vgg16-batch: cold and warm runs differ");

    // The image as a chain of one-layer plans on the warm executor.
    std::vector<core::NetworkPlan> chain;
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        const dnn::Layer &layer = net.layers()[i];
        dnn::Network single(layer.name, layer.input);
        single.add(layer);
        chain.push_back(
            core::NetworkPlan::compile(single, {weights[i]}, 8, false));
    }
    std::vector<float> act(x.data(), x.data() + x.size());
    std::vector<float> next;
    double allMs = 0.0, convMs = 0.0, slowestMs = 0.0;
    std::uint64_t convMacs = 0;
    std::string slowest;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        const dnn::Layer &layer = net.layers()[i];
        next.assign(chain[i].outputElems(), 0.0f);
        const bce::BceStats before = exec.stats();
        const Clock::time_point c0 = Clock::now();
        const int span = tracer.begin("core.layer." + layer.name, 0);
        exec.runInto(chain[i], act.data(), act.size(), next.data(),
                     next.size());
        const bce::BceStats d = exec.stats() - before;
        tracer.end(span, "\"macs\":" + std::to_string(d.macs)
                             + ",\"cycles\":" + std::to_string(d.cycles));
        const double ms = 1e3 * seconds_since(c0);
        act.swap(next);
        allMs += ms;
        if (layer.kind == dnn::LayerKind::Conv) {
            convMs += ms;
            convMacs += d.macs;
        }
        if (layer.kind == dnn::LayerKind::Conv
            || layer.kind == dnn::LayerKind::Fc) {
            report.perLayer("core.layer." + layer.name + ".ms", ms, "ms");
            if (ms > slowestMs) {
                slowestMs = ms;
                slowest = layer.name;
            }
        }
    }
    report.check(same_bits(act, warm.output),
                 "vgg16-batch: layer chain differs from the whole plan");
    std::printf("vgg16-batch slowest host layer (chain): %s %.1f ms\n",
                slowest.c_str(), slowestMs);

    report.perLayer("bce.conv8_mmac_per_s",
                    static_cast<double>(convMacs) / (1e3 * convMs),
                    "MMAC/s");
    if (imagesPerS <= 0.0) {
        BatchLoop one;
        run_batches(one, plan, inputs, opts.threads, 0.0, tracer, false);
        imagesPerS = images_per_s(one, inputs.size());
    }
    // Measured images/s against threads x (one image's chain rate).
    report.perLayer("core.batch_efficiency",
                    imagesPerS * allMs / (1e3 * opts.threads), "ratio");
}

} // namespace

void
run_vgg16_batch(const Options &opts, bool primary, Tracer &tracer,
                Report &report)
{
    const dnn::Network net = dnn::make_vgg16();
    sim::Rng rng(derive_seed(opts.seed, kSalt));
    const core::NetworkWeights weights = core::random_weights(net, rng);
    // One image per worker: the batch every timed call runs.
    std::vector<dnn::FloatTensor> inputs;
    for (unsigned i = 0; i < opts.threads; ++i) {
        inputs.emplace_back(std::vector<std::size_t>{
            net.input().c, net.input().h, net.input().w});
        inputs.back().fillUniform(rng, -1.0, 1.0);
    }

    // Set-up: compile with verify, several times, lower decile.
    core::NetworkPlan plan;
    std::vector<double> setupS;
    const auto setUp = [&] {
        plan = core::NetworkPlan{}; // one plan alive: peak RSS counts one
        const Clock::time_point t0 = Clock::now();
        plan = core::NetworkPlan::compile(net, weights, 8, true);
        setupS.push_back(seconds_since(t0));
    };
    const int before = primary ? setup_reps_before(kSetupReps) : 1;
    for (int rep = 0; rep < before; ++rep)
        setUp();
    report.check(plan.diagnostics().ok(),
                 "vgg16-batch: verify-on-compile found errors");

    double imagesPerS = 0.0;
    if (primary) {
        // The window is measured in two halves, before and after the
        // checks and the remaining set-ups (about 15 s apart), so one
        // slow spell of the host does not cover every batch.
        BatchLoop loop;
        run_batches(loop, plan, inputs, opts.threads, opts.seconds / 2,
                    tracer, true);

        // Checks, outside the timed window.
        core::BatchOptions bo;
        bo.threads = 1;
        const core::BatchResult serial =
            core::run_functional_batch(plan, inputs, bo);
        report.check(same_stats(serial.stats, loop.first.stats)
                         && serial.energy.total()
                                == loop.first.energy.total(),
                     "vgg16-batch: model metrics differ at 1 thread");
        for (std::size_t i = 0; i < inputs.size(); ++i)
            report.check(same_bits(serial.outputs[i],
                                   loop.first.outputs[i]),
                         "vgg16-batch: 1-thread batch output differs");
        report.check(same_bits(core::FunctionalExecutor()
                                   .run(plan, inputs[0])
                                   .output,
                               loop.first.outputs[0]),
                     "vgg16-batch: batch output differs from a "
                     "sequential FunctionalExecutor::run");
        for (int rep = before; rep < kSetupReps; ++rep)
            setUp();

        run_batches(loop, plan, inputs, opts.threads, opts.seconds / 2,
                    tracer, true);
        report.attempt(inputs.size() * loop.batches.size());
        report.check(loop.repeatable,
                     "vgg16-batch: repeated batches differ");
        imagesPerS = images_per_s(loop, inputs.size());
        const double perImage =
            1.0 / static_cast<double>(inputs.size());
        report.note("images_per_s", imagesPerS, "1/s");
        report.note("batch_ms_p10", lower_decile(loop.batches.ms), "ms");
        report.note("batch_ms_p50", median(loop.batches.ms), "ms");
        report.note("batches", static_cast<double>(loop.batches.size()),
                    "count");
        report.endToEnd("setup_s", lower_decile(setupS), "s");
        report.endToEnd("items_per_s", imagesPerS, "1/s");
        report.endToEnd("model_cycles_per_item",
                        static_cast<double>(loop.first.stats.cycles)
                            * perImage,
                        "cycles");
        report.endToEnd("model_energy_uj_per_item",
                        1e6 * loop.first.energy.total() * perImage, "uJ");

        if (opts.trace)
            report.perLayer("trace.overhead_pct", overhead_pct(loop.batches),
                            "%");
    }
    if (opts.trace)
        probe(opts, net, weights, plan, inputs, imagesPerS, tracer, report);
}

} // namespace perfbench
