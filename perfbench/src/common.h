/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options,
 * host-time clocks and order statistics, answer digests and the
 * stored golden references, histogram deltas over the global metric
 * registry, the benchmark's own span log, and metric reporting.
 *
 * Everything here talks to vtrain only through its public headers.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vtrain/vtrain.h"

namespace perfbench {

/** Parsed command line (see main.cc for the flags). */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Toy size: small inputs and short stages (self-tests). */
    bool toy = false;

    /** Flip one answer before verification (self-tests). */
    bool inject_mismatch = false;

    /** Print the digest of the generated inputs and exit. */
    bool dump_inputs = false;

    /** Directory holding the golden reference digests. */
    std::string reference_dir = "perfbench/reference";

    /** Recompute the golden references into reference_dir and exit. */
    bool write_reference = false;

    /** Source identity (run.py: git describe or a source digest); the
     *  configure-time describe is used only when this is empty. */
    std::string build_id;

    /** Where the traced run writes its spans (empty = no file). */
    std::string spans_out;

    /** Where the full report (host stamp included) is written. */
    std::string report_out;
};

/** Worker threads and client connections: min(4, nproc). */
size_t benchThreads();

/**
 * The pool of a sweep pass: min(2, nproc).  A pass's wall time is set
 * by its slowest group, so a pool as wide as the host's few shared
 * cores timed whichever core another tenant slowed; on half of them
 * the scheduler can move a thread to a free one.
 */
size_t sweepThreads();

/** Steady-clock seconds since an arbitrary epoch. */
double now();

/** Nearest-rank percentile (p in [0, 100]) of unsorted samples. */
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/** Largest resident set of this process so far, in MB. */
double peakRssMb();

/** CPU time of this process so far, user plus system, every thread. */
double cpuSeconds();

/** FNV-1a digest of every simulated field except sim_wall_seconds. */
uint64_t resultDigest(const vtrain::SimulationResult &result);

/** A stable, version-free key for one request ("model|gpus|t|d|p|m|b"). */
std::string requestKey(const vtrain::SimRequest &request);

/** Golden digests by requestKey, as stored under perfbench/reference. */
using Reference = std::map<std::string, uint64_t>;

bool loadReference(const std::string &path, Reference *out,
                   std::string *error);
bool writeReference(const std::string &path, const Reference &reference);

/**
 * Answers `requests` on the golden path: a Simulator with templates
 * disabled, so every point builds its graphs and runs the queue
 * engine.  Spread over `threads` workers.
 */
Reference goldenReference(const std::vector<vtrain::SimRequest> &requests,
                          size_t threads);

/** Every histogram of the global registry, keyed "name{k=v,...}". */
using HistogramSet =
    std::map<std::string, vtrain::util::HistogramSnapshot>;
HistogramSet histogramSet();

/** after - before, bucket by bucket (max stays the lifetime max). */
vtrain::util::HistogramSnapshot
histogramDelta(const HistogramSet &after, const HistogramSet &before,
               const std::string &name,
               const vtrain::util::MetricLabels &labels = {});

/** The benchmark's own spans: kept in memory, written at exit. */
class SpanLog
{
  public:
    struct Span {
        std::string name;
        double start_s = 0.0;
        double end_s = 0.0;
        int parent = -1; //!< index of the enclosing span, -1 = root
        std::string layer;
    };

    /** Opens a span; returns its index for end(). */
    int begin(const std::string &name, const std::string &layer,
              int parent = -1);
    void end(int index);

    /** Chrome trace_event JSON of every span. */
    std::string chromeJson() const;

  private:
    std::vector<Span> spans_;
    double origin_s_ = now();
};

/** One printed metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; //!< sample count or base, for the human report

    /** Listed in BENCHMARK.json and printed on the result line; the
     *  rest are printed in the report only. */
    bool gated = true;
};

/** An ordered metric list with lookup. */
class MetricList
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, const std::string &note = "",
             bool gated = true);
    const std::vector<Metric> &items() const { return items_; }
    double get(const std::string &name) const;

  private:
    std::vector<Metric> items_;
};

/** Answers checked and how many failed the check. */
struct Verdict {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void count(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
};

/** The host stamp: CPU model, nproc, replay kernel, build identity. */
std::string hostJson(const std::string &build_id);

/** "%.17g": a number with all its digits. */
std::string num(double value);

/** JSON string literal with escapes. */
std::string quote(const std::string &text);

/** A small deterministic 64-bit mixer for seeding sub-streams. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
