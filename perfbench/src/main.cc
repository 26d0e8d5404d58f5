/**
 * @file
 * vtrain end-to-end benchmark program.
 *
 *   vtrain_perfbench --workload dse_distinct|batch_scan|http_mixed
 *                    --seed N --seconds S --trace 0|1
 *                    [--toy] [--inject-mismatch] [--dump-inputs]
 *                    [--reference-dir DIR] [--write-reference]
 *                    [--build-id ID] [--spans-out F] [--report-out F]
 *
 * Prints a human-readable report, then, as its last line, one JSON
 * object {"correct","attempted","failed","metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1.  The
 * exit status is 0 only when every answer matched.  perfbench/run.py
 * builds this program and is the command to use.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

using namespace vtrain;

/**
 * Set-up repeats before the window, until both the count and the
 * seconds are reached, after one that is not counted: the first
 * set-up of a fresh process pays its page faults and lazy
 * initialisation.  The host's speed drifts over seconds, so a run
 * also sets up again later, outside the timed work: a sweep after
 * each pass, http_mixed after its ladder.  The median then covers the
 * whole run.
 */
constexpr size_t kSetupRepeats = 11;
constexpr double kSetupSeconds = 1.5;
constexpr double kSweepSetupSecondsPerPass = 0.25;

/** Fewest cold passes a sweep run times, whatever --seconds says. */
constexpr size_t kMinPasses = 3;

/**
 * Share of --seconds a traced sweep run spends on its serving probe:
 * a short traced serving stage after the passes, so that the serving
 * layers, which every traced run reports, have traffic to measure.
 */
constexpr double kProbeShare = 0.25;

bool
isWorkload(const std::string &name)
{
    return name == "dse_distinct" || name == "batch_scan" ||
           name == "http_mixed";
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "vtrain_perfbench: %s\nusage: vtrain_perfbench --workload "
                 "dse_distinct|batch_scan|http_mixed --seed N --seconds S "
                 "--trace 0|1 [--toy] [--inject-mismatch] [--dump-inputs] "
                 "[--reference-dir DIR] [--write-reference] "
                 "[--build-id ID] [--spans-out FILE] [--report-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            args.workload = value();
        else if (flag == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value().c_str());
        else if (flag == "--trace")
            args.trace = value() == "1";
        else if (flag == "--toy")
            args.toy = true;
        else if (flag == "--inject-mismatch")
            args.inject_mismatch = true;
        else if (flag == "--dump-inputs")
            args.dump_inputs = true;
        else if (flag == "--reference-dir")
            args.reference_dir = value();
        else if (flag == "--write-reference")
            args.write_reference = true;
        else if (flag == "--build-id")
            args.build_id = value();
        else if (flag == "--spans-out")
            args.spans_out = value();
        else if (flag == "--report-out")
            args.report_out = value();
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!args.write_reference && !isWorkload(args.workload))
        usage("unknown workload");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

std::string
referencePath(const Args &args, const std::string &workload)
{
    return args.reference_dir + "/" + workload + ".txt";
}

int
writeReferences(const Args &args)
{
    for (const char *workload : {"dse_distinct", "batch_scan"}) {
        const SweepInputs inputs = makeSweepInputs(workload, 1, false);
        const double t0 = now();
        const Reference reference =
            goldenReference(inputs.points(), benchThreads());
        if (!writeReference(referencePath(args, workload), reference)) {
            std::fprintf(stderr, "cannot write %s\n",
                         referencePath(args, workload).c_str());
            return 1;
        }
        std::printf("%s: %zu golden digests in %.1f s\n", workload,
                    reference.size(), now() - t0);
    }
    return 0;
}

/** Everything a run generates from its seed. */
struct Inputs {
    bool sweep = false;
    SweepInputs sweeps;
    ServingInputs serving;
};

/**
 * The serving traffic, generated once: it is the client's side, not
 * set-up.  The sweep workloads serve only in trace mode (the probe);
 * their own inputs are generated by every set-up.
 */
Inputs
makeInputs(const Args &args)
{
    Inputs in;
    in.sweep = args.workload != "http_mixed";
    if (!in.sweep || args.trace)
        in.serving = makeServingInputs(
            args.seed, in.sweep ? args.seconds * kProbeShare : args.seconds,
            args.toy, args.trace, !in.sweep);
    return in;
}

/** A digest of every generated input, for the same-seed check. */
uint64_t
inputsDigest(const Inputs &in)
{
    std::string all;
    if (in.sweep) {
        for (const SimRequest &r : in.sweeps.points())
            all += requestKey(r) + ";";
        for (size_t i : in.sweeps.mape_sample)
            all += std::to_string(i) + ",";
        for (const std::vector<size_t> &order : in.sweeps.orders)
            for (size_t i : order)
                all += std::to_string(i) + ",";
    }
    for (const SimRequest &r : in.serving.hot)
        all += requestKey(r) + ";";
    for (const SimRequest &r : in.serving.misses)
        all += requestKey(r) + ";";
    for (const std::string &b : in.serving.batch_bodies)
        all += b;
    auto stage = [&](const Stage &s) {
        for (const Arrival &a : s.arrivals)
            all += num(a.due_s) + ":" +
                   std::to_string(static_cast<int>(a.kind)) + ":" +
                   std::to_string(a.index) + ";";
    };
    for (const Stage &s : in.serving.ladder)
        stage(s);
    stage(in.serving.untraced_nominal);
    stage(in.serving.traced_nominal);
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : all) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A sweep's set-up: load the golden digests, enumerate and order the
 * plans, and start (and stop) the Explorer or SimService a pass opens
 * with.
 */
void
setUpSweeps(const Args &args, SweepInputs *inputs, Reference *reference)
{
    std::string error;
    if (!loadReference(referencePath(args, args.workload), reference,
                       &error))
        throw std::runtime_error(error);
    *inputs = makeSweepInputs(args.workload, args.seed, args.toy);
    startFirstService(*inputs, sweepThreads());
}

/**
 * Answers every hot request once so the timed hits find the cache
 * warm.  The calls go straight to the service, so set-up time is the
 * node's start plus the compute, not the wake-ups of 256 round trips.
 */
void
warm(ServingNode &node, const ServingInputs &inputs)
{
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (size_t w = 0; w < benchThreads(); ++w) {
        threads.emplace_back([&] {
            try {
                for (size_t i = next++; i < inputs.hot.size(); i = next++)
                    (void)node.service().evaluate(inputs.hot[i]);
            } catch (const std::exception &) {
                failed = true;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (failed)
        throw std::runtime_error("warming the hot set failed");
}

std::unique_ptr<ServingNode>
startNode(const ServingInputs &inputs)
{
    auto node = std::make_unique<ServingNode>();
    warm(*node, inputs);
    return node;
}

/** Times of repeated set-ups. */
struct SetupSampler {
    explicit SetupSampler(std::function<void()> fn) : setup(std::move(fn))
    {
    }

    std::function<void()> setup;
    std::vector<double> times;

    /** Repeats the set-up at least `count` times and for `seconds`. */
    void
    sample(size_t count, double seconds)
    {
        const double start = now();
        for (size_t n = 0; n < count || now() - start < seconds; ++n) {
            const double t0 = now();
            setup();
            times.push_back(now() - t0);
        }
    }
};

/** Sweep passes and what they measured. */
struct SweepPhase {
    std::vector<double> pass_walls;
    std::vector<std::vector<SimulationResult>> results;
    PassStats stats;
    double wall_s = 0.0;
    double cpu_s = 0.0; //!< process CPU time over the passes
};

/**
 * Sweep passes until `budget_s` is spent (at least `min_passes`);
 * `between` runs after each pass, outside its times.
 */
SweepPhase
runSweeps(const SweepInputs &inputs, double budget_s, size_t min_passes,
          size_t max_passes, SpanLog *spans, int parent,
          const std::function<void()> &between = {})
{
    SweepPhase phase;
    const double t0 = now();
    while (phase.results.size() < max_passes &&
           (phase.results.size() < min_passes || now() - t0 < budget_s)) {
        const int span = spans->begin("pass", "bench", parent);
        const double start = now();
        const double cpu0 = cpuSeconds();
        phase.results.push_back(
            runPass(inputs, phase.results.size(), sweepThreads(),
                    &phase.stats, spans, span));
        phase.cpu_s += cpuSeconds() - cpu0;
        phase.pass_walls.push_back(now() - start);
        spans->end(span);
        if (between) {
            const int gap = spans->begin("setup", "bench", parent);
            between();
            spans->end(gap);
        }
    }
    phase.wall_s = now() - t0;
    return phase;
}

/**
 * The nominal stage, then rising rungs until one fails.  The peak RSS
 * is read right after the nominal stage, so it does not depend on how
 * many rungs the host's capacity lets run.
 */
std::vector<StageResult>
runLadder(ServingNode &node, const ServingInputs &inputs, SpanLog *spans,
          int parent, double *rss_after_nominal_mb)
{
    std::vector<StageResult> results;
    for (const Stage &stage : inputs.ladder) {
        const int span = spans->begin(
            "stage " + num(stage.rate) + " rps", "generator", parent);
        results.push_back(runStage(node, inputs, stage));
        spans->end(span);
        if (stage.nominal)
            *rss_after_nominal_mb = peakRssMb();
        else if (!results.back().passed)
            break;
    }
    return results;
}

/** Points a serving stage answered (a batch counts its 8). */
double
pointsAnswered(const ServingInputs &inputs, const StageResult &stage)
{
    double points = 0.0;
    for (const StageRecord &r : stage.records) {
        if (r.kind == Kind::Hit || r.kind == Kind::Miss)
            points += 1.0;
        else if (r.kind == Kind::Batch)
            points += static_cast<double>(inputs.batches[r.index].size());
    }
    return points;
}

/**
 * Sweeps: points per median pass.  http_mixed: points answered per
 * second at the nominal rate, which only confirms that the node kept
 * up with the offered rate (it is the schedule's figure otherwise).
 */
double
pointsPerSecond(const Inputs &in, const SweepPhase &sweeps,
                const StageResult &nominal)
{
    if (in.sweep)
        return static_cast<double>(in.sweeps.points().size()) /
               median(sweeps.pass_walls);
    return pointsAnswered(in.serving, nominal) /
           (nominal.end_s - nominal.start_s);
}

/**
 * Process CPU milliseconds per point answered in the timed window:
 * every pass (sweeps) or the nominal stage, client and server both
 * (http_mixed).  Unlike latency, it does not depend on how fast the
 * host wakes a thread, only on how much work each point costs.
 */
double
cpuMsPerPoint(const Inputs &in, const SweepPhase &sweeps,
              const StageResult &nominal)
{
    if (in.sweep)
        return sweeps.cpu_s * 1e3 /
               static_cast<double>(in.sweeps.points().size() *
                                   sweeps.results.size());
    return nominal.cpu_s * 1e3 / pointsAnswered(in.serving, nominal);
}

/** MAPE over the run's seeded held-out sample (outside any window). */
double
runMape(const Inputs &in, const SweepPhase &sweeps,
        const std::map<std::string, SimulationResult> &answers)
{
    std::vector<SimRequest> sample;
    std::vector<SimulationResult> predicted;
    if (in.sweep) {
        const std::vector<SimRequest> points = in.sweeps.points();
        for (size_t i : in.sweeps.mape_sample) {
            sample.push_back(points[i]);
            predicted.push_back(sweeps.results.front()[i]);
        }
    } else {
        // Every third miss the run answered: models and plans the hot
        // set never saw.
        for (size_t i = 0; i < in.serving.misses.size(); i += 3) {
            const auto it = answers.find(requestKey(in.serving.misses[i]));
            if (it == answers.end())
                continue;
            sample.push_back(in.serving.misses[i]);
            predicted.push_back(it->second);
            if (sample.size() == 256)
                break;
        }
    }
    return mapePct(sample, predicted, benchThreads());
}

/** Window-wide counters the per-layer metrics need. */
struct LayerInputs {
    HistogramSet h0, h1, h2; //!< window start, after sweeps, window end
    ServiceStats node_before, node_after;
    double window_s = 0.0;
};

void
addLayerMetrics(const Inputs &in, const SweepPhase &untraced,
                const SweepPhase &traced, const StageResult &untraced_stage,
                const StageResult &traced_stage, const LayerInputs &li,
                const ServingLayers &serving,
                const std::map<std::string, SimulationResult> &answers,
                MetricList *out)
{
    const auto phase = [&](const char *name) {
        return histogramDelta(li.h2, li.h0, "vtrain_sim_phase_seconds",
                              {{"phase", name}});
    };
    const double graph_build = phase("graph_build").sum;
    const double capture = phase("template_capture").sum;
    const double retime = phase("template_retime").sum;
    const double replay = phase("replay").sum;
    const double queue_run = phase("queue_run").sum;
    out->add("sim.graph_build_s", graph_build, "s", "thread-seconds");
    out->add("sim.template_capture_s", capture, "s", "thread-seconds");
    out->add("sim.queue_run_s", queue_run, "s", "thread-seconds");
    out->add("sim.retime_s", retime, "s", "thread-seconds");
    out->add("sim.replay_s", replay, "s", "thread-seconds");

    // Counters of the traced passes' services plus the serving node's
    // growth over the traced stage.
    ServiceStats s = traced.stats.service;
    const ServiceStats &a = li.node_after, &b = li.node_before;
    const auto grow = [](uint64_t after, uint64_t before) {
        return static_cast<double>(after - before);
    };
    out->add("sim.batched_points",
             static_cast<double>(s.engine.batched_points) +
                 grow(a.engine.batched_points, b.engine.batched_points),
             "count");
    out->add("sim.replay_runs",
             static_cast<double>(s.engine.replay_runs) +
                 grow(a.engine.replay_runs, b.engine.replay_runs),
             "count");
    out->add("sim.queue_runs",
             static_cast<double>(s.engine.queue_runs) +
                 grow(a.engine.queue_runs, b.engine.queue_runs),
             "count");
    const double t_hits = static_cast<double>(s.graph_templates.hits) +
                          grow(a.graph_templates.hits, b.graph_templates.hits);
    const double t_misses =
        static_cast<double>(s.graph_templates.misses) +
        grow(a.graph_templates.misses, b.graph_templates.misses);
    out->add("graph.template_hits", t_hits, "count");
    out->add("graph.template_misses", t_misses, "count");
    out->add("graph.template_hit_ratio",
             t_hits + t_misses > 0 ? t_hits / (t_hits + t_misses) : 0.0,
             "ratio");
    out->add("graph.template_bytes",
             static_cast<double>(std::max(s.graph_templates.bytes,
                                          a.graph_templates.bytes)),
             "bytes", "largest resident template cache");

    // Profiling work, summed from the answers' own fields.
    double profiler_calls = 0.0, distinct_ops = 0.0;
    for (const auto &pass : traced.results) {
        for (const SimulationResult &r : pass) {
            profiler_calls += static_cast<double>(r.profiler_calls);
            distinct_ops +=
                static_cast<double>(r.distinct_operators_profiled);
        }
    }
    for (const StageRecord &r : traced_stage.records) {
        if (r.kind != Kind::Miss)
            continue;
        const auto it = answers.find(requestKey(in.serving.misses[r.index]));
        if (it != answers.end()) {
            profiler_calls += static_cast<double>(it->second.profiler_calls);
            distinct_ops += static_cast<double>(
                it->second.distinct_operators_profiled);
        }
    }
    out->add("profiling.profiler_calls", profiler_calls, "count");
    out->add("profiling.distinct_ops", distinct_ops, "count");

    out->add("serve.computed",
             static_cast<double>(s.computed) + grow(a.computed, b.computed),
             "count");
    out->add("serve.batch_dedups",
             static_cast<double>(s.batch_dedups) +
                 grow(a.batch_dedups, b.batch_dedups),
             "count");
    const auto groups = histogramDelta(li.h2, li.h0,
                                       "vtrain_service_batch_group_size");
    out->add("serve.group_size_mean", groups.mean(), "count",
             "n=" + std::to_string(groups.count) + " groups");

    const auto busy_all =
        histogramDelta(li.h2, li.h0, "vtrain_pool_task_run_seconds");
    // A traced sweep run's window holds the sweep pool's passes, then
    // the serving node's pool for the probe.
    const double threads = static_cast<double>(benchThreads());
    const double sweep_threads = static_cast<double>(sweepThreads());
    const double capacity =
        in.sweep ? sweep_threads * traced.wall_s +
                       threads * (li.window_s - traced.wall_s)
                 : threads * li.window_s;
    out->add("pool.busy_s", busy_all.sum, "s", "thread-seconds");
    out->add("pool.utilization", busy_all.sum / capacity, "ratio",
             "busy / (threads x wall)");

    // Attribution.  The sweep passes' pool time is split by the
    // simulator's phase histograms; pool time outside every phase is
    // unattributed, spread over the pool's threads.  The serving
    // stage's unattributed share of request latency is charged at the
    // same share of its wall time.  Gaps in the window between the
    // benchmark's own spans are unattributed too.
    double unattributed = 0.0;
    double covered_wall = traced_stage.end_s - traced_stage.start_s;
    if (in.sweep) {
        const auto sim_sum = [&](const char *name) {
            return histogramDelta(li.h1, li.h0, "vtrain_sim_phase_seconds",
                                  {{"phase", name}})
                .sum;
        };
        const double sim = sim_sum("graph_build") +
                           sim_sum("template_capture") +
                           sim_sum("template_retime") + sim_sum("replay") +
                           sim_sum("queue_run");
        const double busy =
            histogramDelta(li.h1, li.h0, "vtrain_pool_task_run_seconds").sum;
        unattributed += std::max(0.0, busy - sim) / sweep_threads;
        covered_wall += traced.wall_s;
    }
    if (serving.latency_sum_s > 0.0)
        unattributed += serving.unattributed_s / serving.latency_sum_s *
                        serving.wall_s;
    unattributed += std::max(0.0, li.window_s - covered_wall);
    const double unattributed_frac = unattributed / li.window_s;
    out->add("trace.unattributed_frac", unattributed_frac, "ratio",
             num(unattributed) + " s of a " + num(li.window_s) +
                 " s window");
    out->add("trace.coverage_frac", 1.0 - unattributed_frac, "ratio");

    // Tracing overhead: the traced window against the untraced one on
    // the workload's own headline (pass time, or hit latency).
    double overhead = 0.0;
    if (in.sweep) {
        overhead = median(traced.pass_walls) / median(untraced.pass_walls) -
                   1.0;
    } else {
        auto hitP50 = [](const StageResult &stage) {
            std::vector<double> ms;
            for (const StageRecord &r : stage.records)
                if (r.kind == Kind::Hit)
                    ms.push_back((r.done_s - r.due_s) * 1e3);
            return median(ms);
        };
        overhead = hitP50(traced_stage) / hitP50(untraced_stage) - 1.0;
    }
    out->add("trace.overhead_frac", overhead, "ratio",
             in.sweep ? "median pass time, traced vs untraced"
                      : "hit p50, traced vs untraced");
}

void
printReport(const Args &args, const MetricList &metrics,
            const Verdict &verdict, bool correct,
            const std::vector<std::string> &problems, double fail_frac)
{
    const std::string host = hostJson(args.build_id);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.toy ? " toy" : "");
    std::printf("host %s\n", host.c_str());
    for (const Metric &m : metrics.items())
        std::printf("  %-28s %16.6g %-6s %s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str(),
                    m.gated ? "" : " (report only)");
    std::printf("  %-28s %16.6g %-6s failed %llu of %llu attempted "
                "(report only)\n",
                "fail_frac", fail_frac, "ratio",
                static_cast<unsigned long long>(verdict.failed),
                static_cast<unsigned long long>(verdict.attempted));
    for (const std::string &p : problems)
        std::printf("  problem: %s\n", p.c_str());

    // The result line carries the gated metrics; the report file all.
    auto resultJson = [&](bool all) {
        std::string json = "{\"correct\": " +
                           std::string(correct ? "true" : "false") +
                           ", \"attempted\": " +
                           std::to_string(verdict.attempted) +
                           ", \"failed\": " +
                           std::to_string(verdict.failed) +
                           ", \"metrics\": {";
        bool first = true;
        for (const Metric &m : metrics.items()) {
            if (!m.gated && !all)
                continue;
            json += (first ? "" : ", ") + quote(m.name) +
                    ": {\"value\": " + num(m.value) +
                    ", \"unit\": " + quote(m.unit) + "}";
            first = false;
        }
        return json + "}}";
    };

    if (!args.report_out.empty()) {
        std::ofstream report(args.report_out);
        report << "{\"workload\": " << quote(args.workload)
               << ", \"seed\": " << args.seed
               << ", \"seconds\": " << num(args.seconds)
               << ", \"trace\": " << (args.trace ? 1 : 0)
               << ", \"host\": " << host
               << ", \"result\": " << resultJson(true) << "}\n";
    }
    std::printf("%s\n", resultJson(false).c_str());
    std::fflush(stdout);
}

int
run(const Args &args)
{
    if (args.write_reference)
        return writeReferences(args);
    if (args.dump_inputs) {
        Inputs in = makeInputs(args);
        if (in.sweep)
            in.sweeps = makeSweepInputs(args.workload, args.seed, args.toy);
        std::printf("inputs %016llx\n",
                    static_cast<unsigned long long>(inputsDigest(in)));
        return 0;
    }

    SpanLog spans;
    const int run_span = spans.begin("run " + args.workload, "bench");

    // Set-up, several times; the last instance before the window
    // serves the run.
    Inputs in = makeInputs(args);
    SweepInputs sweep_inputs;
    Reference reference;
    std::unique_ptr<ServingNode> node;
    SetupSampler setup([&] {
        if (in.sweep) {
            setUpSweeps(args, &sweep_inputs, &reference);
        } else {
            node.reset();
            node = startNode(in.serving);
        }
    });
    const int setup_span = spans.begin("setup", "bench", run_span);
    setup.setup(); // the uncounted warm-up
    setup.sample(kSetupRepeats, kSetupSeconds);
    spans.end(setup_span);
    in.sweeps = sweep_inputs;
    if (in.sweep) {
        // One pass that is not counted: the first pass of a process
        // grows the heap, later ones reuse it.
        const int warm = spans.begin("warm-up pass", "bench", run_span);
        PassStats unused;
        (void)runPass(in.sweeps, 0, sweepThreads(), &unused, &spans, warm);
        spans.end(warm);
    }
    if (in.sweep && args.trace)
        node = startNode(in.serving); // the probe's node, not set-up

    SweepPhase sweeps, traced_sweeps;
    std::vector<StageResult> ladder;
    double rss_mb = 0.0;
    StageResult untraced_stage, traced_stage;
    LayerInputs li;
    ServingLayers serving_layers;
    MetricList layers;

    const int window = spans.begin("window", "bench", run_span);
    if (!args.trace) {
        if (in.sweep) {
            sweeps = runSweeps(in.sweeps, args.seconds, kMinPasses,
                               SIZE_MAX, &spans, window, [&] {
                                   setup.sample(0, kSweepSetupSecondsPerPass);
                               });
            rss_mb = peakRssMb();
        } else {
            ladder = runLadder(*node, in.serving, &spans, window, &rss_mb);
            const int span = spans.begin("setup", "bench", window);
            setup.sample(0, kSetupSeconds);
            spans.end(span);
        }
    } else {
        // Untraced baseline, then the same work traced.
        if (in.sweep)
            sweeps = runSweeps(in.sweeps, args.seconds / 2, kMinPasses,
                               SIZE_MAX, &spans, window);
        else
            untraced_stage = runStage(*node, in.serving,
                                      in.serving.untraced_nominal);
        const double t0 = now();
        li.h0 = histogramSet();
        if (in.sweep)
            traced_sweeps = runSweeps(in.sweeps, 0.0, sweeps.results.size(),
                                      sweeps.results.size(), &spans, window);
        li.h1 = histogramSet();
        li.node_before = node->service().stats();
        const int span = spans.begin(in.sweep ? "serving probe"
                                              : "traced stage",
                                     "generator", window);
        traced_stage =
            runStage(*node, in.serving, in.serving.traced_nominal);
        spans.end(span);
        li.h2 = histogramSet();
        li.node_after = node->service().stats();
        li.window_s = now() - t0;
        serving_layers = servingLayerMetrics(*node, in.serving,
                                             traced_stage, li.h1, li.h2,
                                             &layers);
    }
    spans.end(window);

    // Answer checks, outside every timed window.
    Verdict verdict;
    std::vector<std::string> problems;
    bool inject = args.inject_mismatch;
    for (const SweepPhase *phase : {&sweeps, &traced_sweeps}) {
        for (const auto &results : phase->results) {
            verifyPass(in.sweeps, results, reference, inject, &verdict,
                       &problems);
            inject = false;
        }
    }
    std::vector<const StageResult *> stages;
    for (const StageResult &s : ladder)
        stages.push_back(&s);
    if (args.trace && !in.sweep)
        stages.push_back(&untraced_stage);
    if (args.trace)
        stages.push_back(&traced_stage);
    std::map<std::string, SimulationResult> answers;
    if (!stages.empty())
        verifyServing(in.serving, stages, inject, &verdict, &answers,
                      &problems);
    const bool correct = verdict.failed == 0;
    const double fail_frac = static_cast<double>(verdict.failed) /
                             static_cast<double>(verdict.attempted);

    MetricList metrics;
    if (!args.trace) {
        const StageResult none;
        const StageResult &nominal = in.sweep ? none : ladder.front();
        const auto [lo, hi] =
            std::minmax_element(setup.times.begin(), setup.times.end());
        metrics.add("setup_s", median(setup.times), "s",
                    "median of " + std::to_string(setup.times.size()) +
                        " after a warm-up, range " + num(*lo) + "-" +
                        num(*hi));
        metrics.add("peak_rss_mb", rss_mb, "MB",
                    in.sweep ? "after the passes" : "after the nominal stage");
        const std::string window_note =
            in.sweep ? std::to_string(sweeps.pass_walls.size()) +
                           " passes of " +
                           std::to_string(in.sweeps.points().size()) +
                           " points"
                     : "the nominal stage";
        std::string pass_range;
        if (in.sweep) {
            const auto [fast, slow] = std::minmax_element(
                sweeps.pass_walls.begin(), sweeps.pass_walls.end());
            pass_range = ", " + num(*fast) + "-" + num(*slow) + " s each";
        }
        metrics.add("points_per_s", pointsPerSecond(in, sweeps, nominal),
                    "1/s",
                    in.sweep ? "median of " + window_note + pass_range
                             : "answered at the nominal rate");
        metrics.add("cpu_ms_per_point", cpuMsPerPoint(in, sweeps, nominal),
                    "ms", "process CPU over " + window_note);
        const double t0 = now();
        const double mape = runMape(in, sweeps, answers);
        metrics.add("mape_pct", mape, "%",
                    "testbed surrogate, held-out sample, " +
                        num(now() - t0) + " s outside the window");
        if (!in.sweep)
            servingMetrics(in.serving, nominal, ladder, &metrics);
    } else {
        addLayerMetrics(in, sweeps, traced_sweeps, untraced_stage,
                        traced_stage, li, serving_layers, answers, &layers);
        metrics = layers;
        // The layers must own at least 90% of the traced window.  A
        // shortfall is a gap in the attribution, not a wrong answer:
        // it is reported, and the run still counts.
        const double coverage = metrics.get("trace.coverage_frac");
        if (coverage < 0.9)
            problems.push_back("the layers cover " + num(coverage * 100) +
                               "% of the traced window, below 90%");
    }
    spans.end(run_span);
    if (!args.spans_out.empty()) {
        std::ofstream out(args.spans_out);
        out << spans.chromeJson() << "\n";
    }
    node.reset();

    printReport(args, metrics, verdict, correct, problems, fail_frac);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    vtrain::setVerbose(false);
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vtrain_perfbench: %s\n", e.what());
        return 1;
    }
}
