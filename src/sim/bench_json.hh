/**
 * @file
 * A tiny two-level JSON document for benchmark results: named sections,
 * each mapping keys to doubles. Emission is deterministic (insertion
 * order, round-trip number formatting) and the parser accepts exactly
 * the subset str() emits, so a committed baseline file can be loaded
 * back and compared against a fresh run (the CI perf-smoke gate).
 */

#ifndef BFREE_SIM_BENCH_JSON_HH
#define BFREE_SIM_BENCH_JSON_HH

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace bfree::sim {

/** Section -> key -> double, preserving insertion order. */
class BenchJson
{
  public:
    /** Set (or overwrite) one value; creates the section on demand. */
    void set(const std::string &section, const std::string &key,
             double value);

    /** True when @p section / @p key exists. */
    bool has(const std::string &section, const std::string &key) const;

    /** Value at @p section / @p key, or @p fallback when absent. */
    double get(const std::string &section, const std::string &key,
               double fallback = 0.0) const;

    /** Section names in insertion order. */
    std::vector<std::string> sections() const;

    /** Keys of @p section in insertion order (empty when absent). */
    std::vector<std::string> keys(const std::string &section) const;

    /** The document as pretty-printed JSON. */
    std::string str() const;

    /** Write str() to @p path; returns false on I/O failure. */
    bool save(const std::string &path) const;

    /**
     * Parse a document previously produced by str(). Returns false
     * (leaving the document empty) on malformed input.
     */
    bool parse(const std::string &text);

    /** Load and parse @p path; returns false when unreadable/invalid. */
    bool load(const std::string &path);

  private:
    using Section = std::vector<std::pair<std::string, double>>;
    std::vector<std::pair<std::string, Section>> doc;

    Section *find(const std::string &section);
    const Section *find(const std::string &section) const;
};

/**
 * One command-line flag a benchmark accepts: with @p value set it
 * takes the next argument, otherwise it is a switch that sets @p on.
 */
struct BenchFlag
{
    const char *name;
    std::string *value = nullptr;
    bool *on = nullptr;
};

/**
 * Parse a benchmark's command line against @p flags. An unknown flag,
 * or a value flag with no (or an empty) value after it, is reported on
 * stderr and makes this return false: the benchmark should then exit 1
 * instead of running with the flag dropped. A bench that takes
 * --threads lists it as a value flag (sim::threads_from_args reads the
 * number).
 */
bool parse_bench_flags(int argc, char **argv,
                       std::initializer_list<BenchFlag> flags);

} // namespace bfree::sim

#endif // BFREE_SIM_BENCH_JSON_HH
