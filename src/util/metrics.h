/**
 * @file
 * Process-wide metrics: counters, gauges, and log-bucketed latency
 * histograms behind a named registry, with Prometheus text exposition.
 *
 * The paper's pitch is predictability -- knowing where time goes
 * before paying for it -- and the serve stack needs the same property
 * at runtime: per-request latency distributions (p50/p90/p99), queue
 * depths, and per-phase timings, not just lifetime totals.  This file
 * is the storage layer; instrumentation lives at the call sites
 * (HttpServer, SimService, Simulator, ThreadPool) and the wire surface
 * is GET /metricsz (serve/http_frontend.h).
 *
 * Hot-path cost: Counter::inc and Gauge::add are one relaxed atomic
 * RMW.  Histogram::record is a handful of relaxed atomic ops on a
 * per-thread shard (threads are striped across shards, so concurrent
 * recorders do not contend on one cache line); percentiles are derived
 * only at snapshot time by merging the shards.  Registry lookups take
 * a mutex -- resolve metric handles once (construction time) and keep
 * the returned pointers, which stay valid for the registry's lifetime.
 *
 * Naming (enforced by scripts/lint.py): `vtrain_<subsystem>_<name>`
 * in snake_case, with a trailing unit (`_seconds`, `_bytes`) where one
 * applies, and `_total` on counters.
 */
#ifndef VTRAIN_UTIL_METRICS_H
#define VTRAIN_UTIL_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {
namespace util {

/** One series' label set, e.g. {{"route","/healthz"},{"status","200"}}. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** A monotonically increasing count (name must end in `_total`). */
class Counter
{
  public:
    void inc(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /**
     * Raises the count to `v` when it is below (never lowers it): a
     * scrape-time mirror of a total kept elsewhere.  Idempotent, so
     * concurrent scrapes cannot double-count.
     */
    void raiseTo(uint64_t v)
    {
        uint64_t current = value_.load(std::memory_order_relaxed);
        while (current < v &&
               !value_.compare_exchange_weak(current, v,
                                             std::memory_order_relaxed)) {
        }
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/** A value that can go up and down (queue depth, open connections). */
class Gauge
{
  public:
    void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }

    void add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }

    void sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }

    int64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<int64_t> value_{0};
};

/** Point-in-time merge of a Histogram's shards. */
struct HistogramSnapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0; //!< exact largest recorded value

    /** Non-empty buckets as (upper_bound, count), non-cumulative,
     *  ascending by bound. */
    std::vector<std::pair<double, uint64_t>> buckets;

    double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

    /**
     * Estimated value at percentile `p` in [0, 100]: linear
     * interpolation inside the bucket holding the rank, clamped to
     * the observed max.  Relative error is bounded by the bucket
     * growth factor (2^(1/4), ~19%).
     */
    double percentile(double p) const;
};

/**
 * A log-bucketed histogram of non-negative values (typically seconds).
 *
 * Buckets grow by 2^(1/4) per step from kMinValue: 4 buckets per
 * octave, 64 octaves, so the range 1e-9 .. ~1.8e10 covers nanosecond
 * latencies, multi-second batches and unitless counts alike.  Values
 * at or below kMinValue land in bucket 0; larger-than-range values
 * saturate into the last bucket (their exact magnitude survives via
 * the max).
 *
 * record() is wait-free on relaxed atomics and safe from any thread;
 * snapshot() merges the shards without stopping recorders, so a
 * concurrent snapshot is approximate at the margin (it may miss an
 * in-flight record) but never torn below the bucket level.
 */
class Histogram
{
  public:
    static constexpr int kBucketsPerOctave = 4;
    static constexpr int kNumBuckets = 256;
    static constexpr double kMinValue = 1e-9;

    Histogram() = default;

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(double value);

    HistogramSnapshot snapshot() const;

    /** The bucket `value` lands in (exposed for tests). */
    static int bucketIndex(double value);

    /** Exclusive upper bound of bucket `index` (exposed for tests). */
    static double bucketUpperBound(int index);

  private:
    /** Recorders are striped across shards by thread so concurrent
     *  record() calls land on distinct cache lines. */
    struct alignas(64) Shard {
        std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
        std::atomic<double> sum{0.0};
        std::atomic<double> max{0.0};
    };
    static constexpr size_t kNumShards = 8;

    std::array<Shard, kNumShards> shards_;
};

/** What a family holds; fixed at first registration. */
enum class MetricType { Counter, Gauge, Histogram };

/**
 * A named collection of metric families, each holding one series per
 * label set.  One process-global instance backs /metricsz; tests can
 * construct private registries.
 *
 * All methods are thread-safe.  The returned metric pointers are
 * owned by the registry and valid for its lifetime; registering the
 * same (name, labels) again returns the existing object.  Registering
 * a name under two different types is a fatal error.
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;

    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** The process-global registry (what /metricsz renders). */
    static MetricRegistry &global();

    Counter *counter(std::string_view name, MetricLabels labels = {},
                     std::string_view help = "") EXCLUDES(mutex_);
    Gauge *gauge(std::string_view name, MetricLabels labels = {},
                 std::string_view help = "") EXCLUDES(mutex_);
    Histogram *histogram(std::string_view name, MetricLabels labels = {},
                         std::string_view help = "") EXCLUDES(mutex_);

    /**
     * Declares an empty family so it appears in the exposition (HELP/
     * TYPE lines) before any series exists -- scrapers then see the
     * full inventory from the first scrape.
     */
    void declareCounter(std::string_view name, std::string_view help = "")
        EXCLUDES(mutex_);
    void declareGauge(std::string_view name, std::string_view help = "")
        EXCLUDES(mutex_);
    void declareHistogram(std::string_view name, std::string_view help = "")
        EXCLUDES(mutex_);

    /** Prometheus text exposition (format version 0.0.4). */
    std::string renderPrometheus() const EXCLUDES(mutex_);

    /** One histogram series with its merged snapshot (for /statz). */
    struct HistogramSeries {
        std::string name;
        MetricLabels labels;
        HistogramSnapshot snapshot;
    };

    /** Snapshots of every histogram series, family order. */
    std::vector<HistogramSeries> histogramSeries() const EXCLUDES(mutex_);

    size_t numFamilies() const EXCLUDES(mutex_);

  private:
    struct Series {
        MetricLabels labels;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };
    struct Family {
        MetricType type = MetricType::Counter;
        std::string help;
        std::vector<Series> series;
    };

    Series &findOrCreateSeries(std::string_view name, MetricType type,
                               MetricLabels &&labels,
                               std::string_view help) REQUIRES(mutex_);

    mutable Mutex mutex_;
    std::map<std::string, Family, std::less<>> families_
        GUARDED_BY(mutex_);
};

/** RAII timer: records elapsed seconds into `h` on destruction.
 *  A null histogram disables it (for optional instrumentation). */
class ScopedLatency
{
  public:
    explicit ScopedLatency(Histogram *h);
    ~ScopedLatency();

    ScopedLatency(const ScopedLatency &) = delete;
    ScopedLatency &operator=(const ScopedLatency &) = delete;

  private:
    Histogram *histogram_;
    uint64_t start_ns_;
};

/** @return a monotonic nanosecond timestamp (steady clock). */
uint64_t monotonicNanos();

} // namespace util
} // namespace vtrain

#endif // VTRAIN_UTIL_METRICS_H
