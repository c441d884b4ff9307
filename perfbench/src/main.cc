/**
 * @file
 * bfree_perfbench: the repository benchmark.
 *
 *   bfree_perfbench --workload vgg16-batch|serve-ffn|lstm-seq
 *                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
 *
 * Prints the host fingerprint, human-readable figures and, as its last
 * line, one JSON object {correct, attempted, failed, metrics}: the
 * end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. A traced run also writes its spans as Chrome trace-event
 * JSON to --trace-out.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "harness.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

/** Worker threads: the host's, capped so a run keeps its time budget. */
constexpr unsigned kMaxThreads = 4;

using RunFn = void (*)(const Options &, bool, Tracer &, Report &);

struct Workload
{
    const char *name;
    RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"vgg16-batch", run_vgg16_batch},
    {"serve-ffn", run_serve_ffn},
    {"lstm-seq", run_lstm_seq},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "bfree_perfbench: %s\nusage: bfree_perfbench --workload "
                 "vgg16-batch|serve-ffn|lstm-seq --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parse_u64(const char *s, std::uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s, &end, 10);
    return errno == 0 && *end == '\0';
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            if (!parse_u64(v, o.seed))
                usage("--seed needs a non-negative integer");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parse_u64(v, n) || n == 0 || n > 600)
                usage("--seconds needs an integer in [1, 600]");
            o.seconds = static_cast<double>(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (!parse_u64(v, n) || n > 1)
                usage("--trace needs 0 or 1");
            o.trace = n == 1;
            haveTrace = true;
        } else if (flag == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace)
        usage("--seed, --seconds and --trace are required");
    const auto named = [&](const Workload &w) {
        return o.workload == w.name;
    };
    if (std::none_of(std::begin(kWorkloads), std::end(kWorkloads), named))
        usage(("unknown workload '" + o.workload + "'").c_str());
    o.threads = std::clamp(std::thread::hardware_concurrency(), 1u,
                           kMaxThreads);
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parse(argc, argv);
    const std::string host = host_fingerprint_json(opts.threads);
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %llu seconds %.0f trace %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::fflush(stdout);

    Tracer tracer(opts.trace);
    Report report;
    for (const Workload &w : kWorkloads)
        if (opts.workload == w.name)
            w.run(opts, true, tracer, report);
    if (opts.trace) {
        // Every other workload's layer probes, so one traced run
        // reports every per-layer metric.
        for (const Workload &w : kWorkloads)
            if (opts.workload != w.name)
                w.run(opts, false, tracer, report);
        report.perLayer("sim.pool_spawn_ms", pool_spawn_ms(opts.threads),
                        "ms");
        if (!opts.traceOut.empty()) {
            const std::string meta =
                "{\"workload\": \"" + opts.workload
                + "\", \"seed\": " + std::to_string(opts.seed)
                + ", \"host\": " + host + "}";
            report.check(tracer.writeChromeTrace(opts.traceOut, meta),
                         "cannot write trace file " + opts.traceOut);
            std::printf("trace written to %s (%zu spans)\n",
                        opts.traceOut.c_str(), tracer.spans().size());
        }
    } else {
        report.endToEnd("peak_rss_mb", peak_rss_mb(), "MB");
    }
    report.print(opts.trace);
    return 0;
}
