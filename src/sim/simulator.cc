#include "sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <unordered_map>

#include "graph/template.h"
#include "profiling/synthetic_profiler.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/units.h"

namespace vtrain {

namespace {

/**
 * Per-phase latency histograms, one series per phase label.  Resolved
 * lazily on first use (never per Simulator -- benches construct
 * thousands) and kept as raw pointers into the global registry.
 */
struct PhaseMetrics {
    util::Histogram *graph_build;      //!< GraphBuilder::build
    util::Histogram *template_capture; //!< capture / expand to tasks
    util::Histogram *template_retime;  //!< durations-only retime
    util::Histogram *replay;           //!< schedule replay engine
    util::Histogram *queue_run;        //!< event-queue engine
};

const PhaseMetrics &
phaseMetrics()
{
    static const PhaseMetrics *metrics = [] {
        util::MetricRegistry &r = util::MetricRegistry::global();
        const std::string_view help =
            "Simulator phase latency: graph assembly, template "
            "capture/expand, durations-only retime, schedule replay, "
            "and the event-queue engine.";
        auto *m = new PhaseMetrics;
        m->graph_build = r.histogram("vtrain_sim_phase_seconds",
                                     {{"phase", "graph_build"}}, help);
        m->template_capture =
            r.histogram("vtrain_sim_phase_seconds",
                        {{"phase", "template_capture"}}, help);
        m->template_retime =
            r.histogram("vtrain_sim_phase_seconds",
                        {{"phase", "template_retime"}}, help);
        m->replay = r.histogram("vtrain_sim_phase_seconds",
                                {{"phase", "replay"}}, help);
        m->queue_run = r.histogram("vtrain_sim_phase_seconds",
                                   {{"phase", "queue_run"}}, help);
        return m;
    }();
    return *metrics;
}

/**
 * The micro-batch count fast mode simulates exactly: 2p+2 covers
 * warmup, at least one full steady-state period per stage, and drain
 * for both pipeline schedules.
 */
int
fastModeCap(const ParallelConfig &parallel)
{
    return std::max(2 * parallel.pipeline + 2, 4);
}

/** @return seconds elapsed since `start` on the steady clock. */
double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
hashAppend(Hash64 &h, const SimOptions &options)
{
    h.mix(options.fast_mode)
        .mix(options.memoize_profiles)
        .mix(options.collapse_operators)
        .mix(static_cast<int64_t>(options.attention))
        .mix(static_cast<uint64_t>(
            reinterpret_cast<uintptr_t>(options.perturber)));
}

uint64_t
hashValue(const SimOptions &options)
{
    Hash64 h;
    hashAppend(h, options);
    return h.digest();
}

Simulator::Simulator(ClusterSpec cluster, SimOptions options)
    : Simulator(std::move(cluster), options,
                std::make_shared<GraphTemplateCache>())
{
}

Simulator::Simulator(ClusterSpec cluster, SimOptions options,
                     std::shared_ptr<GraphTemplateCache> templates,
                     std::shared_ptr<EngineCounters> counters)
    : cluster_(std::move(cluster)), options_(options), comm_(cluster_),
      templates_(std::move(templates)), counters_(std::move(counters))
{
    if (!counters_)
        counters_ = std::make_shared<EngineCounters>();
}

OpGraph
Simulator::buildOps(const ModelConfig &model, const ParallelConfig &parallel,
                    int n_micro) const
{
    GraphBuilder builder(model, parallel, cluster_, comm_);
    BuildOptions build_options;
    build_options.n_micro_override = n_micro;
    util::TraceSpan span("sim.graph_build");
    util::ScopedLatency timer(phaseMetrics().graph_build);
    return builder.build(build_options);
}

ExpandOptions
Simulator::expandOptions() const
{
    ExpandOptions expand_options;
    expand_options.collapse_operators = options_.collapse_operators;
    expand_options.perturber = options_.perturber;
    return expand_options;
}

Simulator::RunOutcome
Simulator::runOnce(const ModelConfig &model, const ParallelConfig &parallel,
                   int n_micro, OperatorToTaskTable &table) const
{
    const OpGraph ops = buildOps(model, parallel, n_micro);
    TaskGraph tasks;
    {
        util::TraceSpan span("sim.template_capture");
        util::ScopedLatency timer(phaseMetrics().template_capture);
        tasks = TaskGraph::expand(ops, table, expandOptions());
    }
    RunOutcome outcome;
    {
        util::TraceSpan span("sim.queue_run");
        util::ScopedLatency timer(phaseMetrics().queue_run);
        outcome.engine = runSimulation(tasks);
    }
    counters_->queue_runs.fetch_add(1, std::memory_order_relaxed);
    outcome.num_operators = ops.numNodes();
    outcome.num_tasks = tasks.numTasks();
    outcome.distinct_profiled = table.numEntries();
    outcome.profiler_calls = table.numProfilerCalls();
    return outcome;
}

SimulationResult
Simulator::assembleResult(const ModelConfig &model,
                          const ParallelConfig &parallel,
                          const RunOutcome &base, const RunOutcome *next,
                          int n_micro, int cap) const
{
    SimulationResult result;
    result.total_micro_batches = n_micro;

    if (next) {
        const double slope =
            next->engine.makespan - base.engine.makespan;
        VTRAIN_CHECK(slope >= 0.0,
                     "iteration time must grow with micro-batches");
        result.iteration_seconds =
            base.engine.makespan +
            slope * static_cast<double>(n_micro - cap);
        result.extrapolated = true;
        result.simulated_micro_batches = cap;
    } else {
        result.iteration_seconds = base.engine.makespan;
        result.extrapolated = false;
        result.simulated_micro_batches = n_micro;
    }
    result.num_operators = base.num_operators;
    result.num_tasks = base.num_tasks;
    result.distinct_operators_profiled = base.distinct_profiled;
    result.profiler_calls = base.profiler_calls;
    result.time_by_tag = base.engine.time_by_tag;
    const double busiest =
        *std::max_element(base.engine.busy_compute.begin(),
                          base.engine.busy_compute.end());
    result.bubble_fraction = 1.0 - busiest / base.engine.makespan;

    result.model_flops =
        model.modelFlops(parallel.tokensPerIteration(model));
    const double peak =
        static_cast<double>(parallel.totalGpus()) *
        cluster_.node.gpu.peakFlops(parallel.precision);
    result.utilization =
        result.model_flops / (result.iteration_seconds * peak);
    return result;
}

SimulationResult
Simulator::simulateIteration(const ModelConfig &model,
                             const ParallelConfig &parallel)
{
    return simulateIterationBatch(model, {parallel}).front();
}

SimulationResult
Simulator::simulateFromScratch(const ModelConfig &model,
                               const ParallelConfig &parallel) const
{
    const auto wall_start = std::chrono::steady_clock::now();
    model.validate();
    parallel.validate(model, cluster_);

    SyntheticProfiler profiler(cluster_.node.gpu, parallel.precision,
                               options_.attention);
    OperatorToTaskTable table(profiler, options_.memoize_profiles);

    const int n_micro = parallel.numMicroBatches();
    const int cap = fastModeCap(parallel);
    const bool fast = options_.fast_mode && n_micro > cap + 1;
    const RunOutcome base =
        runOnce(model, parallel, fast ? cap : n_micro, table);
    const RunOutcome next =
        fast ? runOnce(model, parallel, cap + 1, table) : RunOutcome{};
    SimulationResult result = assembleResult(
        model, parallel, base, fast ? &next : nullptr, n_micro, cap);
    result.sim_wall_seconds = secondsSince(wall_start);
    return result;
}

uint64_t
batchGroupKey(const ModelConfig &model, const ParallelConfig &parallel,
              const ClusterSpec &cluster, const SimOptions &options)
{
    // The batched path needs determinism (no perturber) and the
    // memoized table (mirroring the simulator's template gate), and a
    // well-formed enough plan to derive the micro-batch count.
    if (!options.memoize_profiles || options.perturber != nullptr)
        return 0;
    if (parallel.data <= 0 || parallel.micro_batch_size <= 0 ||
        parallel.pipeline <= 0)
        return 0;
    const int n_micro = parallel.numMicroBatches();
    const int cap = fastModeCap(parallel);
    const bool fast = options.fast_mode && n_micro > cap + 1;
    // Fast-mode points simulate the capped prefix regardless of their
    // own n_micro, so any fast point of a structure groups; exact
    // points must agree on the simulated count itself.
    const int n_sim = fast ? cap : n_micro;

    Hash64 h;
    h.mix(std::string_view("vtrain.batch-group.v1"));
    hashAppend(h, options);
    hashAppend(h, cluster);
    hashAppend(h, model);
    // Precision selects the profiler, which the group shares; it is
    // deliberately absent from the structural fingerprint.
    h.mix(static_cast<int64_t>(parallel.precision));
    h.mix(fast).mix(int64_t{n_sim});
    h.mix(structuralFingerprint(model, parallel, n_sim,
                                options.collapse_operators,
                                options.attention));
    return h.digest();
}

ParallelConfig
batchCore(const ParallelConfig &parallel)
{
    ParallelConfig core = parallel;
    core.global_batch_size = 0;
    return core;
}

std::vector<SimulationResult>
Simulator::simulateIterationBatch(const ModelConfig &model,
                                  const std::vector<ParallelConfig> &plans)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const size_t n_plans = plans.size();
    std::vector<SimulationResult> results(n_plans);
    if (n_plans == 0)
        return results;

    // Template-less runs (no cache, a perturber, or the non-memoized
    // ablation) take the golden reference path, one plan at a time.
    // A mixed group times each plan as a batch of one.
    const uint64_t key =
        batchGroupKey(model, plans[0], cluster_, options_);
    if (key == 0 || templates_ == nullptr) {
        for (size_t i = 0; i < n_plans; ++i)
            results[i] = simulateFromScratch(model, plans[i]);
        return results;
    }
    for (size_t i = 1; i < n_plans; ++i) {
        if (batchGroupKey(model, plans[i], cluster_, options_) != key) {
            for (size_t j = 0; j < n_plans; ++j)
                results[j] = simulateIteration(model, plans[j]);
            return results;
        }
    }

    model.validate();
    for (const ParallelConfig &plan : plans)
        plan.validate(model, cluster_);

    // Merge the group into distinct cores (batchCore): equal cores
    // retime to equal durations and replay to equal runs, so each is
    // simulated once and every member derives its result from its
    // core's runs.
    std::vector<size_t> core_of(n_plans);
    std::vector<const ParallelConfig *> cores;
    {
        std::unordered_map<ParallelConfig, size_t> index;
        for (size_t j = 0; j < n_plans; ++j) {
            const auto [it, inserted] =
                index.emplace(batchCore(plans[j]), cores.size());
            if (inserted)
                cores.push_back(&plans[j]);
            core_of[j] = it->second;
        }
    }
    const size_t n_cores = cores.size();

    // One profiler table for the whole group: every core re-times the
    // same interned descriptors, so each distinct operator is
    // profiled once for all K points.
    SyntheticProfiler profiler(cluster_.node.gpu, plans[0].precision,
                               options_.attention);
    OperatorToTaskTable table(profiler, options_.memoize_profiles);

    const int n_micro0 = plans[0].numMicroBatches();
    const int cap = fastModeCap(plans[0]);
    const bool fast = options_.fast_mode && n_micro0 > cap + 1;
    const int n_passes = fast ? 2 : 1;

    // Bounds the number of duration vectors alive at once, so a
    // 512-core sweep over a 400k-task topology does not hold
    // 512 * 400k doubles.
    constexpr size_t kCoreChunk = 32;

    // Per core: its runs at each simulated micro-batch count.
    std::vector<RunOutcome> base(n_cores);
    std::vector<RunOutcome> next(fast ? n_cores : 0);
    for (int pass = 0; pass < n_passes; ++pass) {
        const int n_micro = pass == 0 ? (fast ? cap : n_micro0)
                                      : cap + 1;
        std::vector<RunOutcome> &out = pass == 0 ? base : next;

        // Chunked retime -> replay pipeline over the cores, double
        // buffered: while the main thread replays chunk c out of one
        // buffer, the retime pool (when set) produces chunk c+1's
        // durations into the other.  Duration buffers are reused
        // across chunks: retimeDurations resizes in place, so the
        // steady state re-times without allocating.
        struct ChunkBuf {
            size_t begin = 0;                     //!< first core
            std::vector<std::vector<double>> sets; //!< slot-indexed
            std::vector<std::exception_ptr> errors; //!< per slot
        };
        ChunkBuf bufs[2];
        // Core 0's set lives in one buffer per thread, reused across
        // calls, so a capture writes its durations into warm pages.
        thread_local std::vector<double> core0_set;
        bufs[0].sets.resize(1);
        bufs[0].sets[0].swap(core0_set);

        // Core 0 goes first, serially.  A warm pass retimes it; a cold
        // pass -- or a retime rejection (a foreign profiler or a
        // fingerprint collision) -- builds and captures the topology,
        // overwriting the cache entry, and takes core 0's durations
        // from the capture's own expansion.  Either way the table now
        // holds every descriptor of the template, so the retimes below
        // take only read-only memoized hits and may run concurrently
        // (the table is not thread-safe under mutation).  Durations
        // are a pure function of the core, so results -- and the
        // table snapshots below -- are identical to a serial loop.
        const uint64_t fp = structuralFingerprint(
            model, plans[0], n_micro, options_.collapse_operators,
            options_.attention);
        std::shared_ptr<const GraphTemplate> tmpl = templates_->get(fp);
        bool warm = false;
        if (tmpl) {
            util::TraceSpan span("sim.template_retime");
            util::ScopedLatency timer(phaseMetrics().template_retime);
            warm = tmpl->retimeDurations(table, *cores[0], cluster_,
                                         comm_, &bufs[0].sets[0]);
        }
        if (!warm) {
            const OpGraph ops = buildOps(model, *cores[0], n_micro);
            {
                util::TraceSpan span("sim.template_capture");
                util::ScopedLatency timer(phaseMetrics().template_capture);
                tmpl = GraphTemplate::capture(ops, table, expandOptions(),
                                              &bufs[0].sets[0]);
            }
            templates_->put(fp, tmpl);
        }

        // Retimes the chunk of cores starting at `begin` into `buf`,
        // from slot `filled` on, on the pool (returns the in-flight
        // job) or serially (returns null).  A throwing retime is
        // carried to the calling thread as its slot's exception.
        const auto start_chunk =
            [&](size_t begin, size_t filled,
                ChunkBuf &buf) -> std::shared_ptr<ThreadPool::ForJob> {
            const size_t count =
                std::min(begin + kCoreChunk, n_cores) - begin;
            buf.begin = begin;
            if (buf.sets.size() < count)
                buf.sets.resize(count);
            buf.errors.assign(count, nullptr);
            const auto retime_one = [&buf, &tmpl, &table, &cores,
                                     this](size_t slot) {
                try {
                    VTRAIN_CHECK(tmpl->retimeDurations(
                                     table, *cores[buf.begin + slot],
                                     cluster_, comm_, &buf.sets[slot]),
                                 "a group member rejected the template "
                                 "its first core was timed on");
                } catch (...) {
                    buf.errors[slot] = std::current_exception();
                }
            };
            util::TraceSpan span("sim.template_retime");
            util::ScopedLatency timer(phaseMetrics().template_retime);
            if (retime_pool_ == nullptr || filled >= count) {
                for (size_t s = filled; s < count; ++s)
                    retime_one(s);
                return nullptr;
            }
            return retime_pool_->startFor(
                count - filled, /*grain=*/1,
                [retime_one, filled](size_t b, size_t e) {
                    for (size_t s = b; s < e; ++s)
                        retime_one(filled + s);
                });
        };
        // Joins the in-flight retime job on every exit, exception
        // paths included, so no pool worker outlives the buffers it
        // writes into.
        struct InflightJob {
            std::shared_ptr<ThreadPool::ForJob> job;
            InflightJob() = default;
            InflightJob(const InflightJob &) = delete;
            InflightJob &operator=(const InflightJob &) = delete;
            ~InflightJob()
            {
                if (job)
                    job->finish();
            }
        } inflight;

        // The chunk loop replays every core, core 0 included, over
        // the template's execution-ordered topology.
        const size_t n_chunks = (n_cores + kCoreChunk - 1) / kCoreChunk;
        std::vector<const double *> set_ptrs;
        std::vector<EngineResult> engines;
        inflight.job = start_chunk(0, /*filled=*/1, bufs[0]);
        for (size_t c = 0; c < n_chunks; ++c) {
            ChunkBuf &buf = bufs[c % 2];
            if (inflight.job) {
                util::TraceSpan span("sim.template_retime");
                util::ScopedLatency timer(
                    phaseMetrics().template_retime);
                inflight.job->finish(); // cooperative: helps run it
                inflight.job = nullptr;
            }
            for (const std::exception_ptr &error : buf.errors)
                if (error)
                    std::rethrow_exception(error);
            // Launch the next chunk's retimes so they overlap the
            // replay below.
            const size_t count = buf.errors.size();
            if (c + 1 < n_chunks)
                inflight.job =
                    start_chunk(buf.begin + count, 0, bufs[(c + 1) % 2]);
            set_ptrs.resize(count);
            for (size_t s = 0; s < count; ++s)
                set_ptrs[s] = buf.sets[s].data();
            engines.resize(count);
            {
                util::TraceSpan span("sim.replay");
                util::ScopedLatency timer(phaseMetrics().replay);
                replayBatchInto(tmpl->topology(), set_ptrs.data(), count,
                                engines.data(), activeReplayKernel());
            }
            (count == 1 ? counters_->replay_runs
                        : counters_->batched_points)
                .fetch_add(count, std::memory_order_relaxed);
            for (size_t s = 0; s < count; ++s)
                out[buf.begin + s].engine = std::move(engines[s]);
        }
        core0_set.swap(bufs[0].sets[0]);

        // Table statistics snapshot, taken after this pass's
        // (re)timing work, as the template-less path takes it.
        for (RunOutcome &run : out) {
            run.num_operators = tmpl->numOperators();
            run.num_tasks = tmpl->numTasks();
            run.distinct_profiled = table.numEntries();
            run.profiler_calls = table.numProfilerCalls();
        }
    }

    // The points share one wall clock: report the amortized per-point
    // cost so numbers stay comparable across entry points.
    const double amortized =
        secondsSince(wall_start) / static_cast<double>(n_plans);
    for (size_t j = 0; j < n_plans; ++j) {
        const size_t c = core_of[j];
        results[j] = assembleResult(model, plans[j], base[c],
                                    fast ? &next[c] : nullptr,
                                    plans[j].numMicroBatches(), cap);
        results[j].sim_wall_seconds = amortized;
    }
    counters_->core_merges.fetch_add(n_plans - n_cores,
                                     std::memory_order_relaxed);
    return results;
}

TrainingProjection
Simulator::projectTraining(const ModelConfig &model,
                           const ParallelConfig &parallel,
                           double total_tokens)
{
    const SimulationResult iter = simulateIteration(model, parallel);
    TrainingProjection proj;
    proj.iteration_seconds = iter.iteration_seconds;
    proj.num_iterations =
        std::ceil(total_tokens / parallel.tokensPerIteration(model));
    proj.total_seconds = proj.iteration_seconds * proj.num_iterations;
    proj.total_days = proj.total_seconds / kSecPerDay;
    proj.utilization = iter.utilization;
    return proj;
}

} // namespace vtrain
