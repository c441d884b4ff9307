#include "harness.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "tech/geometry.hh"
#include "verify/plan_verifier.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
time_ms(const std::function<void()> &fn)
{
    const Clock::time_point t0 = Clock::now();
    fn();
    return 1e3 * seconds_since(t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t idx =
        std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1,
                                v.size());
    return v[idx - 1];
}

std::vector<double>
Samples::where(bool on) const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < ms.size(); ++i)
        if (traced[i] == on)
            out.push_back(ms[i]);
    return out;
}

double
overhead_pct(const Samples &s)
{
    const double off = median(s.where(false));
    return off > 0.0 ? 100.0 * (median(s.where(true)) / off - 1.0) : 0.0;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
}

int
Tracer::begin(std::string name, std::int64_t item)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = std::move(name);
    s.item = item;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startUs = nowUs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int idx, std::string args)
{
    if (!enabled_ || idx < 0)
        return;
    spans_[idx].endUs = nowUs();
    spans_[idx].args = std::move(args);
    // Spans nest strictly: close everything opened inside this one.
    while (!open_.empty() && open_.back() >= idx)
        open_.pop_back();
}

double
Tracer::timed(const std::string &name, std::int64_t item,
              const std::function<void()> &fn)
{
    const int idx = begin(name, item);
    const double ms = time_ms(fn);
    end(idx);
    return ms;
}

namespace {

std::string
json_escape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

/** A JSON number with all its digits (non-finite values become 0). */
std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &metadataJson) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadataJson
       << ",\"traceEvents\":[\n";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"bfree_perfbench\"}}";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << ",\n{\"name\":\"" << json_escape(s.name)
           << "\",\"cat\":\"" << json_escape(s.name.substr(
                  0, s.name.find('.')))
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << json_number(s.startUs)
           << ",\"dur\":" << json_number(s.endUs - s.startUs)
           << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
           << ",\"item\":" << s.item;
        if (!s.args.empty())
            os << "," << s.args;
        os << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

void
Report::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct_ = false;
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void
Report::fail(std::uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    failed_ += n;
    std::fprintf(stderr, "failed operations: %llu %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
}

void
Report::endToEnd(std::string name, double value, std::string unit)
{
    endToEnd_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::perLayer(std::string name, double value, std::string unit)
{
    perLayer_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::note(std::string name, double value, std::string unit)
{
    notes_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::print(bool trace) const
{
    for (const Metric &m : notes_)
        std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    const std::vector<Metric> &metrics = trace ? perLayer_ : endToEnd_;
    for (const Metric &m : metrics)
        std::printf("%-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("failed %llu of %llu attempted\n",
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    std::ostringstream js;
    js << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << json_number(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Checks and host facts
// ---------------------------------------------------------------------

bool
same_bits(std::span<const float> a, std::span<const float> b)
{
    return a.size() == b.size()
           && (a.empty()
               || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool
same_stats(const bfree::bce::BceStats &a, const bfree::bce::BceStats &b)
{
    return a.cycles == b.cycles && a.macs == b.macs
           && a.configLoads == b.configLoads
           && a.counts.lutLookups == b.counts.lutLookups
           && a.counts.romLookups == b.counts.romLookups
           && a.counts.shifts == b.counts.shifts
           && a.counts.adds == b.counts.adds
           && a.counts.cycles == b.counts.cycles
           && a.cyclesByMode == b.cyclesByMode
           && a.lutReadsPim == b.lutReadsPim
           && a.lutReadsCache == b.lutReadsCache
           && a.specialLutEvents == b.specialLutEvents;
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6; // KiB
}

std::string
host_fingerprint_json(unsigned threads)
{
    const auto kib = [](int name) {
        const long v = sysconf(name);
        return v > 0 ? v / 1024 : 0;
    };
    std::ostringstream os;
    os << "{\"vcpus\": " << std::thread::hardware_concurrency()
       << ", \"threads\": " << threads << ", \"simd\": \""
       << bfree::sim::simd_level_name(bfree::sim::active_simd_level())
       << "\", \"l1d_kib\": " << kib(_SC_LEVEL1_DCACHE_SIZE)
       << ", \"l2_kib\": " << kib(_SC_LEVEL2_CACHE_SIZE)
       << ", \"llc_kib\": " << kib(_SC_LEVEL3_CACHE_SIZE)
       << ", \"build\": \"" << PERFBENCH_BUILD_TYPE
       << "\", \"compiler\": \"" << json_escape(__VERSION__) << "\"}";
    return os.str();
}

void
probe_compile(const bfree::dnn::Network &net,
              const bfree::core::NetworkWeights &weights, unsigned bits,
              const std::string &workload, Tracer &tracer, Report &report)
{
    using namespace bfree;
    core::NetworkPlan plan;
    report.perLayer("core.compile_ms." + workload,
                    tracer.timed("core.NetworkPlan.compile", -1,
                                 [&] {
                                     plan = core::NetworkPlan::compile(
                                         net, weights, bits, false);
                                 }),
                    "ms");
    verify::VerifyReport audit;
    report.perLayer("verify.plan_audit_ms." + workload,
                    tracer.timed("verify.PlanVerifier.verify", -1,
                                 [&] {
                                     audit = verify::PlanVerifier(
                                                 tech::CacheGeometry{})
                                                 .verify(plan);
                                 }),
                    "ms");
    report.check(audit.ok(), workload + ": plan audit found errors");
}

double
pool_spawn_ms(unsigned threads)
{
    std::vector<double> ms;
    for (int i = 0; i < 31; ++i)
        ms.push_back(
            time_ms([threads] { bfree::sim::ThreadPool pool(threads); }));
    return median(ms);
}

std::uint64_t
derive_seed(std::uint64_t seed, std::uint64_t salt)
{
    // splitmix64 finalizer: nearby seeds give unrelated streams.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
