/**
 * @file
 * The benchmark's three workloads.
 *
 * Each entry point has two roles. As the run's own workload
 * (@p primary) it sets up, measures a closed or open loop for
 * Options::seconds, checks every output outside the timed window and
 * reports the end-to-end metrics; in a traced run every other
 * iteration of the timed loop records spans, and the run reports the
 * tracing overhead. In a traced run every workload also runs its layer
 * probes, so one traced run reports every per-layer metric whatever
 * --workload names.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "harness.hh"

namespace perfbench {

/** VGG-16 at 8 bits, one batch of images through
 *  run_functional_batch, repeated closed-loop. */
void run_vgg16_batch(const Options &opts, bool primary, Tracer &tracer,
                     Report &report);

/** ServeEngine::replay of a Poisson trace served to BERT-base's
 *  feed-forward sublayer at 8 bits. */
void run_serve_ffn(const Options &opts, bool primary, Tracer &tracer,
                   Report &report);

/** LSTM-1024 at 4 bits, stepped over 300-step sequences. */
void run_lstm_seq(const Options &opts, bool primary, Tracer &tracer,
                  Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
