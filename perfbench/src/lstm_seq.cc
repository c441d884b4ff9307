/**
 * @file
 * lstm-seq: the zoo's LSTM-1024 (39 inputs, 1024 hidden) as a
 * one-layer plan at 4 bits, stepped with FunctionalExecutor::runLstmStep
 * over TIMIT-length (300-step) sequences, closed-loop: each step needs
 * the last. It is the only workload with 4-bit tables on the hot path
 * and has no pool and no per-call set-up.
 */

#include <algorithm>
#include <memory>
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

constexpr std::uint64_t kSalt = 0x157d;
constexpr unsigned kBits = 4;
/** Leading steps cross-checked against the Legacy tier. */
constexpr std::size_t kLegacySteps = 2;
/** Set-ups timed per run (each ~0.04 s); setup_s is their lower decile. */
constexpr int kSetupReps = 15;

dnn::LstmState
zero_state(const dnn::Layer &cell)
{
    dnn::LstmState s;
    s.h.assign(cell.lstmHidden, 0.0f);
    s.c.assign(cell.lstmHidden, 0.0f);
    return s;
}

/** What one whole sequence produced. */
struct SequenceFacts
{
    dnn::LstmState last;
    bce::BceStats stats;
};

/** Repeated sequences of one timed loop. */
struct SequenceLoop
{
    Samples steps;     ///< Every step, every sequence.
    Samples sequences; ///< One per whole sequence.
    SequenceFacts first;
    double firstEnergyJ = 0.0;
    /** States and per-step stats of the first sequence's leading
     *  steps, for the Legacy cross-check. */
    std::vector<dnn::LstmState> leading;
    std::vector<bce::BceStats> leadingStats;
    bool repeatable = true;
};

SequenceLoop
sequence_loop(core::FunctionalExecutor &exec, const core::NetworkPlan &plan,
              const std::vector<std::vector<float>> &xs, double seconds,
              Tracer &tracer, bool interleave)
{
    SequenceLoop loop;
    const dnn::Layer &cell = plan.layers()[0].layer;
    Tracer off(false);
    const Clock::time_point t0 = Clock::now();
    do {
        const std::size_t seq = loop.sequences.size();
        const bool on = traced_iteration(tracer, interleave, seq);
        Tracer &tr = on ? tracer : off;
        const double e0 = seq == 0 ? exec.energy().total() : 0.0;
        const bce::BceStats s0 = exec.stats();
        dnn::LstmState state = zero_state(cell);
        const Clock::time_point q0 = Clock::now();
        const int seqSpan = tr.begin("lstm.sequence", seq);
        for (std::size_t t = 0; t < xs.size(); ++t) {
            const bce::BceStats before = exec.stats();
            const Clock::time_point c0 = Clock::now();
            const int span = tr.begin("core.FunctionalExecutor.runLstmStep",
                                      t);
            state = exec.runLstmStep(plan, 0, xs[t], state);
            tr.end(span);
            loop.steps.add(1e3 * seconds_since(c0), on);
            if (seq == 0 && t < kLegacySteps) {
                loop.leading.push_back(state);
                loop.leadingStats.push_back(exec.stats() - before);
            }
        }
        tr.end(seqSpan);
        loop.sequences.add(1e3 * seconds_since(q0), on);
        const SequenceFacts f{state, exec.stats() - s0};
        if (seq == 0) {
            loop.first = f;
            loop.firstEnergyJ = exec.energy().total() - e0;
        } else {
            loop.repeatable = loop.repeatable
                              && same_bits(f.last.h, loop.first.last.h)
                              && same_bits(f.last.c, loop.first.last.c)
                              && same_stats(f.stats, loop.first.stats);
        }
    } while (loop_more(t0, seconds, tracer, interleave,
                       loop.sequences.size()));
    return loop;
}

/** Per-layer probes: compile/audit, a fresh executor's cold and warm
 *  step, the 4-bit gate matvec alone and the PWL share of a step. */
void
probe(const dnn::Network &net, const core::NetworkWeights &weights,
      const core::NetworkPlan &plan,
      const std::vector<std::vector<float>> &xs, Tracer &tracer,
      Report &report)
{
    const std::string w = "lstm-seq";
    probe_compile(net, weights, kBits, w, tracer, report);

    // Probe one realistic step: the input and state a few steps into
    // the sequence (an all-zero state would halve the gather work).
    const core::PlannedLayer &pl = plan.layers()[0];
    const dnn::Layer &cell = pl.layer;
    constexpr std::size_t kProbeStep = 8;
    dnn::LstmState state = zero_state(cell);
    {
        core::FunctionalExecutor lead;
        for (std::size_t t = 0; t < kProbeStep; ++t)
            state = lead.runLstmStep(plan, 0, xs[t], state);
    }
    const std::vector<float> &x = xs[kProbeStep];
    core::FunctionalExecutor exec;
    report.perLayer(
        "core.cold_run_ms." + w,
        tracer.timed("core.FunctionalExecutor.runLstmStep", kProbeStep,
                     [&] { exec.runLstmStep(plan, 0, x, state); }),
        "ms");
    // The gate matvec alone -- [x, h] against the frozen 4H x (I+H)
    // tile, the call a step makes first -- interleaved with whole
    // steps so host drift cancels in the ratio.
    const std::size_t k = cell.lstmInput + cell.lstmHidden;
    const std::size_t n = 4 * std::size_t(cell.lstmHidden);
    dnn::FloatTensor a({1, k});
    std::copy(x.begin(), x.end(), a.data());
    std::copy(state.h.begin(), state.h.end(), a.data() + cell.lstmInput);
    std::vector<double> stepMs, matvecMs, matvecShare;
    for (int i = 0; i < 31; ++i) {
        stepMs.push_back(tracer.timed(
            "core.FunctionalExecutor.runLstmStep", kProbeStep,
            [&] { exec.runLstmStep(plan, 0, x, state); }));
        matvecMs.push_back(tracer.timed(
            "core.FunctionalExecutor.qMatmulFrozen", kProbeStep,
            [&] { exec.qMatmulFrozen(a, pl.frozen[0], k, n); }));
        matvecShare.push_back(matvecMs.back() / stepMs.back());
    }
    report.perLayer("core.warm_run_ms." + w, median(stepMs), "ms");
    report.perLayer("bce.matmul4_mmac_per_s",
                    static_cast<double>(k * n) / (1e3 * median(matvecMs)),
                    "MMAC/s");
    report.perLayer("lut.pwl_share", 1.0 - median(matvecShare), "ratio");
}

} // namespace

void
run_lstm_seq(const Options &opts, bool primary, Tracer &tracer,
             Report &report)
{
    const dnn::Network net = dnn::make_lstm();
    sim::Rng rng(derive_seed(opts.seed, kSalt));
    const core::NetworkWeights weights = core::random_weights(net, rng);
    const dnn::Layer &cell = net.layers()[0];
    std::vector<std::vector<float>> xs(net.timesteps,
                                       std::vector<float>(cell.lstmInput));
    for (std::vector<float> &x : xs)
        for (float &v : x)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));

    // Set-up: compile with verify, a fresh executor and one warm-up
    // step (it seeds the 4-bit tables), several times, lower decile.
    core::NetworkPlan plan;
    std::unique_ptr<core::FunctionalExecutor> exec;
    std::vector<double> setupS;
    const auto setUp = [&] {
        exec.reset(); // one plan and executor alive: peak RSS counts one
        plan = core::NetworkPlan{};
        const Clock::time_point t0 = Clock::now();
        plan = core::NetworkPlan::compile(net, weights, kBits, true);
        exec = std::make_unique<core::FunctionalExecutor>();
        exec->runLstmStep(plan, 0, xs[0], zero_state(cell));
        setupS.push_back(seconds_since(t0));
    };
    const int before = primary ? setup_reps_before(kSetupReps) : 1;
    for (int rep = 0; rep < before; ++rep)
        setUp();
    report.check(plan.diagnostics().ok(),
                 "lstm-seq: verify-on-compile found errors");

    if (primary) {
        const SequenceLoop loop =
            sequence_loop(*exec, plan, xs, opts.seconds, tracer, true);
        report.attempt(loop.steps.size());
        report.check(loop.repeatable, "lstm-seq: repeated sequences differ");

        // Legacy cross-check of the leading steps (after the same
        // warm-up step, so both datapaths start in the same mode).
        core::FunctionalExecutor legacy({}, {}, bce::ExecTier::Legacy);
        legacy.runLstmStep(plan, 0, xs[0], zero_state(cell));
        dnn::LstmState state = zero_state(cell);
        for (std::size_t t = 0; t < kLegacySteps; ++t) {
            const bce::BceStats before = legacy.stats();
            state = legacy.runLstmStep(plan, 0, xs[t], state);
            report.check(same_bits(state.h, loop.leading[t].h)
                             && same_bits(state.c, loop.leading[t].c),
                         "lstm-seq: tiered h/c differ from Legacy");
            report.check(same_stats(legacy.stats() - before,
                                    loop.leadingStats[t]),
                         "lstm-seq: tiered stats differ from Legacy");
        }

        const double steps = static_cast<double>(xs.size());
        const double stepsPerS =
            1e3 * steps / lower_decile(loop.sequences.ms);
        report.note("steps_per_s", stepsPerS, "1/s");
        report.note("steps_per_s_median",
                    1e3 * steps / median(loop.sequences.ms), "1/s");
        report.note("step_ms_p50", median(loop.steps.ms), "ms");
        report.note("step_ms_p95", percentile(loop.steps.ms, 0.95), "ms");
        report.note("steps", static_cast<double>(loop.steps.size()),
                    "count");
        for (int rep = before; rep < kSetupReps; ++rep)
            setUp();
        report.endToEnd("setup_s", lower_decile(setupS), "s");
        report.endToEnd("items_per_s", stepsPerS, "1/s");
        report.endToEnd("model_cycles_per_item",
                        static_cast<double>(loop.first.stats.cycles) / steps,
                        "cycles");
        report.endToEnd("model_energy_uj_per_item",
                        1e6 * loop.firstEnergyJ / steps, "uJ");

        if (opts.trace)
            report.perLayer("trace.overhead_pct", overhead_pct(loop.steps),
                            "%");
    }
    if (opts.trace)
        probe(net, weights, plan, xs, tracer, report);
}

} // namespace perfbench
