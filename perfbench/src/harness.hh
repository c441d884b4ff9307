/**
 * @file
 * Shared pieces of the repository benchmark: run options, the result
 * report, the in-memory span recorder and timing helpers.
 *
 * The benchmark drives the library only through its public entry
 * points (NetworkPlan, FunctionalExecutor, run_functional_batch,
 * PlanVerifier, ThreadPool, ServeEngine). Spans are recorded from the
 * benchmark's own code around those calls, kept in memory and written
 * once at exit as Chrome trace-event JSON (opens in Perfetto).
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bce/bce.hh"
#include "core/network_plan.hh"
#include "dnn/network.hh"
#include "dnn/tensor.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Wall time of one call of @p fn, in milliseconds. */
double time_ms(const std::function<void()> &fn);

/** Median of @p v (0 for an empty sample). */
double median(std::vector<double> v);

/** Nearest-rank percentile of @p v, @p p in [0, 1]. */
double percentile(std::vector<double> v, double p);

/**
 * The time a gated rate is taken from: the lower decile (nearest rank)
 * of a window's repeat times, so the fastest of up to ten repeats.
 * Other tenants of a shared host only ever slow a repeat, and on the
 * reference host they do so in spells of seconds that halve the speed
 * of every workload at once; the median of a 20 s window follows those
 * spells, the fast tail of its repeats does not.
 */
inline double
lower_decile(std::vector<double> v)
{
    return percentile(std::move(v), 0.10);
}

/**
 * How many of a run's @p reps set-ups come before its timed window;
 * the rest come after its checks, so one slow spell of the host does
 * not cover them all.
 */
inline int
setup_reps_before(int reps)
{
    return reps / 2 + 1;
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; ///< Chrome trace-event file (trace runs).
    unsigned threads = 1; ///< Worker threads of every batched call.
};

/** One recorded span: a call into a module's public function. */
struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int parent = -1;        ///< Index of the enclosing span, -1 at top.
    std::int64_t item = -1; ///< Item id (image, request, step, batch).
    std::string args;       ///< Extra JSON members, e.g. "\"macs\":12".
};

/**
 * In-memory span recorder. Disabled (the untraced runs) it records
 * nothing and costs one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now())
    {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (-1 when disabled). */
    int begin(std::string name, std::int64_t item = -1);

    /** Close span @p idx, attaching @p args (JSON members). */
    void end(int idx, std::string args = {});

    /** Run @p fn inside a span and return its wall time in ms. */
    double timed(const std::string &name, std::int64_t item,
                 const std::function<void()> &fn);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as Chrome trace-event JSON; false on error. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &metadataJson) const;

  private:
    double nowUs() const;

    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< Stack of open span indices.
};

/**
 * Per-iteration times of one timed loop, each tagged with whether
 * spans were on. A traced run alternates untraced and traced
 * iterations in one window, so host drift cancels out of the tracing
 * overhead.
 */
struct Samples
{
    std::vector<double> ms;
    std::vector<bool> traced;

    void
    add(double v, bool on)
    {
        ms.push_back(v);
        traced.push_back(on);
    }

    std::size_t size() const { return ms.size(); }

    /** The samples taken with spans on (@p on) or off. */
    std::vector<double> where(bool on) const;
};

/** Traced over untraced median sample, in percent. */
double overhead_pct(const Samples &s);

/**
 * Whether iteration @p i of a timed loop records spans: never when
 * @p tracer is off; with @p interleave every odd iteration; otherwise
 * every iteration.
 */
inline bool
traced_iteration(const Tracer &tracer, bool interleave, std::size_t i)
{
    return tracer.enabled() && (!interleave || i % 2 == 1);
}

/** Keep a timed loop going until @p seconds have passed and, when it
 *  interleaves spans, until it holds both kinds of sample. */
inline bool
loop_more(Clock::time_point t0, double seconds, const Tracer &tracer,
          bool interleave, std::size_t done)
{
    const std::size_t least = tracer.enabled() && interleave ? 2 : 1;
    return done < least || seconds_since(t0) < seconds;
}

/** A named metric with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one run reports. */
class Report
{
  public:
    /** Record an output check; a failed one is a failed operation. */
    void check(bool ok, const std::string &what);

    /** Count @p n failed operations (rejections, deadline misses). */
    void fail(std::uint64_t n, const std::string &what);

    void attempt(std::uint64_t n) { attempted_ += n; }

    void endToEnd(std::string name, double value, std::string unit);
    void perLayer(std::string name, double value, std::string unit);

    /** A workload-specific figure printed for people, not gated. */
    void note(std::string name, double value, std::string unit);

    /** The human-readable lines followed by the final JSON line. */
    void print(bool trace) const;

  private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<Metric> endToEnd_;
    std::vector<Metric> perLayer_;
    std::vector<Metric> notes_;
};

/** True when both float sequences hold the same bits. */
bool same_bits(std::span<const float> a, std::span<const float> b);

inline bool
same_bits(std::span<const float> a, const bfree::dnn::FloatTensor &b)
{
    return same_bits(a, {b.data(), b.size()});
}

inline bool
same_bits(const bfree::dnn::FloatTensor &a, const bfree::dnn::FloatTensor &b)
{
    return same_bits({a.data(), a.size()}, b);
}

/** True when every BceStats field matches. */
bool same_stats(const bfree::bce::BceStats &a,
                const bfree::bce::BceStats &b);

/** Peak resident set size of this process, MB (10^6 bytes). */
double peak_rss_mb();

/** Host fingerprint as one JSON object (vCPUs, ISA, caches, build). */
std::string host_fingerprint_json(unsigned threads);

/**
 * Report core.compile_ms.<workload> (NetworkPlan::compile without
 * verify) and verify.plan_audit_ms.<workload> (a separate PlanVerifier
 * pass over that plan), and check the audit is clean.
 */
void probe_compile(const bfree::dnn::Network &net,
                   const bfree::core::NetworkWeights &weights,
                   unsigned bits, const std::string &workload,
                   Tracer &tracer, Report &report);

/** Time ThreadPool construction + join at @p threads, median ms. */
double pool_spawn_ms(unsigned threads);

/** A per-workload seed stream: distinct and stable for each salt. */
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
