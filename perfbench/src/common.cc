#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/build_info.h"

namespace perfbench {

using namespace vtrain;

size_t
benchThreads()
{
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    return static_cast<size_t>(std::clamp(online, 1L, 4L));
}

size_t
sweepThreads()
{
    return std::min<size_t>(2, benchThreads());
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(samples.size()));
    const size_t index = static_cast<size_t>(
        std::clamp(rank, 1.0, static_cast<double>(samples.size())));
    return samples[index - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
peakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
cpuSeconds()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

namespace {

struct Fnv {
    uint64_t state = 0xcbf29ce484222325ull;

    void bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 0x100000001b3ull;
        }
    }

    template <typename T> void value(T v) { bytes(&v, sizeof(v)); }
};

} // namespace

uint64_t
resultDigest(const SimulationResult &r)
{
    Fnv h;
    h.value(r.iteration_seconds);
    h.value(r.utilization);
    h.value(r.model_flops);
    h.value(r.bubble_fraction);
    for (double t : r.time_by_tag)
        h.value(t);
    h.value(static_cast<uint64_t>(r.num_operators));
    h.value(static_cast<uint64_t>(r.num_tasks));
    h.value(static_cast<uint64_t>(r.distinct_operators_profiled));
    h.value(static_cast<uint64_t>(r.profiler_calls));
    h.value(static_cast<uint64_t>(r.extrapolated));
    h.value(static_cast<int64_t>(r.simulated_micro_batches));
    h.value(static_cast<int64_t>(r.total_micro_batches));
    return h.state;
}

std::string
requestKey(const SimRequest &r)
{
    const ParallelConfig &p = r.parallel;
    return r.model.name + "|" + std::to_string(r.cluster.totalGpus()) +
           "|" + std::to_string(p.tensor) + "|" +
           std::to_string(p.data) + "|" + std::to_string(p.pipeline) +
           "|" + std::to_string(p.micro_batch_size) + "|" +
           std::to_string(p.global_batch_size);
}

bool
loadReference(const std::string &path, Reference *out, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read reference " + path;
        return false;
    }
    Reference reference;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t tab = line.rfind('\t');
        if (tab == std::string::npos) {
            *error = "malformed reference line in " + path;
            return false;
        }
        reference[line.substr(0, tab)] =
            std::stoull(line.substr(tab + 1), nullptr, 16);
    }
    *out = std::move(reference);
    return true;
}

bool
writeReference(const std::string &path, const Reference &reference)
{
    std::ofstream out(path);
    out << "# requestKey<TAB>digest of every simulated field except "
           "sim_wall_seconds,\n# answered by a Simulator with templates "
           "disabled (the queue-engine golden path).\n";
    char hex[32];
    for (const auto &[key, digest] : reference) {
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(digest));
        out << key << '\t' << hex << '\n';
    }
    return static_cast<bool>(out);
}

Reference
goldenReference(const std::vector<SimRequest> &requests, size_t threads)
{
    std::vector<uint64_t> digests(requests.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
            for (size_t i = next++; i < requests.size(); i = next++) {
                const SimRequest &r = requests[i];
                Simulator golden(r.cluster, r.options, nullptr);
                digests[i] = resultDigest(
                    golden.simulateIteration(r.model, r.parallel));
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    Reference reference;
    for (size_t i = 0; i < requests.size(); ++i)
        reference[requestKey(requests[i])] = digests[i];
    return reference;
}

namespace {

std::string
seriesKey(const std::string &name, const util::MetricLabels &labels)
{
    std::string key = name + "{";
    for (const auto &[k, v] : labels)
        key += k + "=" + v + ",";
    return key + "}";
}

bool
hasLabels(const std::string &key, const std::string &name,
          const util::MetricLabels &labels)
{
    if (key.compare(0, name.size() + 1, name + "{") != 0)
        return false;
    for (const auto &[k, v] : labels)
        if (key.find("{" + k + "=" + v + ",") == std::string::npos &&
            key.find("," + k + "=" + v + ",") == std::string::npos)
            return false;
    return true;
}

/** Adds (sign = +1) or subtracts (-1) `s` into the bucket map. */
void
accumulate(std::map<double, int64_t> *buckets, double *sum,
           const util::HistogramSnapshot &s, int sign)
{
    for (const auto &[upper, n] : s.buckets)
        (*buckets)[upper] += sign * static_cast<int64_t>(n);
    *sum += sign * s.sum;
}

util::HistogramSnapshot
fromBuckets(const std::map<double, int64_t> &buckets, double sum,
            double max)
{
    util::HistogramSnapshot out;
    for (const auto &[upper, n] : buckets) {
        if (n <= 0)
            continue;
        out.buckets.emplace_back(upper, static_cast<uint64_t>(n));
        out.count += static_cast<uint64_t>(n);
    }
    out.sum = out.count ? sum : 0.0;
    out.max = max;
    return out;
}

} // namespace

HistogramSet
histogramSet()
{
    HistogramSet set;
    for (auto &series :
         util::MetricRegistry::global().histogramSeries())
        set[seriesKey(series.name, series.labels)] =
            std::move(series.snapshot);
    return set;
}

util::HistogramSnapshot
histogramDelta(const HistogramSet &after, const HistogramSet &before,
               const std::string &name, const util::MetricLabels &labels)
{
    std::map<double, int64_t> buckets;
    double sum = 0.0;
    double max = 0.0;
    for (const auto &[key, snapshot] : after) {
        if (!hasLabels(key, name, labels))
            continue;
        accumulate(&buckets, &sum, snapshot, +1);
        max = std::max(max, snapshot.max);
        const auto old = before.find(key);
        if (old != before.end())
            accumulate(&buckets, &sum, old->second, -1);
    }
    return fromBuckets(buckets, sum, max);
}

int
SpanLog::begin(const std::string &name, const std::string &layer,
               int parent)
{
    Span span;
    span.name = name;
    span.layer = layer;
    span.parent = parent;
    span.start_s = now();
    span.end_s = span.start_s;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

void
SpanLog::end(int index)
{
    spans_[static_cast<size_t>(index)].end_s = now();
}

std::string
SpanLog::chromeJson() const
{
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i ? "," : "") << "{\"name\":" << quote(s.name)
            << ",\"cat\":" << quote(s.layer)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << num((s.start_s - origin_s_) * 1e6)
            << ",\"dur\":" << num((s.end_s - s.start_s) * 1e6)
            << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
            << "}}";
    }
    out << "]}";
    return out.str();
}

void
MetricList::add(const std::string &name, double value,
                const std::string &unit, const std::string &note, bool gated)
{
    items_.push_back(Metric{name, value, unit, note, gated});
}

double
MetricList::get(const std::string &name) const
{
    for (const Metric &m : items_)
        if (m.name == name)
            return m.value;
    return 0.0;
}

namespace {

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

} // namespace

std::string
hostJson(const std::string &build_id)
{
    const util::BuildInfo &info = util::buildInfo();
    // The id run.py computes at run time names the sources this
    // binary was built from; the configure-time describe may be stale.
    const std::string git = build_id.empty() ? info.git_describe : build_id;
    std::ostringstream out;
    out << "{\"cpu_model\":" << quote(cpuModel())
        << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"replay_kernel\":"
        << quote(replayKernelName(activeReplayKernel()))
        << ",\"build_type\":" << quote(info.build_type)
        << ",\"git_describe\":" << quote(git) << "}";
    return out.str();
}

std::string
num(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench
