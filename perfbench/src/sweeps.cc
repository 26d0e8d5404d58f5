/**
 * @file
 * Cold sweep passes: `dse_distinct` (Explorer::sweep over the MT-NLG
 * and GPT-3 design spaces, every plan once) and `batch_scan` (the 30
 * MT-NLG plans at about 17 global batch sizes, one evaluateBatch).
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "workloads.h"

namespace perfbench {

using namespace vtrain;

namespace {

SweepSpec
mtNlgSpec()
{
    SweepSpec spec;
    spec.global_batch_size = 1920;
    spec.max_tensor = 8;
    spec.max_data = 32;
    spec.max_pipeline = 35;
    spec.micro_batch_sizes = {1, 2};
    spec.max_gpus = 2048;
    return spec;
}

SweepSpec
gpt3Spec()
{
    SweepSpec spec;
    spec.global_batch_size = 1536;
    spec.max_tensor = 8;
    spec.max_data = 64;
    spec.micro_batch_sizes = {1, 2, 4};
    spec.max_gpus = 1024;
    return spec;
}

/**
 * Seeded point orders a sweep run cycles through, one per pass.  The
 * order decides which groups the pool runs last, and so the pass's
 * tail: one order per run made a seed's luck part of its figure.
 */
constexpr size_t kPassOrders = 16;

template <typename T>
void
shuffle(std::vector<T> *items, uint64_t seed)
{
    Rng rng(seed);
    std::shuffle(items->begin(), items->end(), rng.engine());
}

/** `count` distinct indices below `n`, seeded. */
std::vector<size_t>
sampleIndices(size_t n, size_t count, uint64_t seed)
{
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i)
        all[i] = i;
    shuffle(&all, seed);
    all.resize(std::min(count, n));
    std::sort(all.begin(), all.end());
    return all;
}

/** Adds the counters the per-layer metrics read. */
void
addStats(ServiceStats *sum, const ServiceStats &s)
{
    sum->computed += s.computed;
    sum->batch_dedups += s.batch_dedups;
    sum->graph_templates.hits += s.graph_templates.hits;
    sum->graph_templates.misses += s.graph_templates.misses;
    sum->graph_templates.bytes =
        std::max(sum->graph_templates.bytes, s.graph_templates.bytes);
    sum->engine.replay_runs += s.engine.replay_runs;
    sum->engine.queue_runs += s.engine.queue_runs;
    sum->engine.batched_points += s.engine.batched_points;
}

} // namespace

std::vector<SimRequest>
SweepInputs::points() const
{
    if (scan)
        return scan_requests;
    std::vector<SimRequest> out;
    for (const SweepSetup &setup : setups) {
        for (const ParallelConfig &plan : setup.plans) {
            SimRequest r;
            r.model = setup.model;
            r.cluster = setup.cluster;
            r.parallel = plan;
            out.push_back(std::move(r));
        }
    }
    return out;
}

SweepInputs
makeSweepInputs(const std::string &workload, uint64_t seed, bool toy)
{
    SweepInputs inputs;
    const ModelConfig mtnlg = zoo::mtNlg530b();
    const ClusterSpec mtnlg_cluster = makeCluster(2048);
    std::vector<ParallelConfig> mtnlg_plans =
        enumeratePlans(mtnlg, mtnlg_cluster, mtNlgSpec());
    size_t mape_count = 0;
    if (workload == "dse_distinct") {
        inputs.setups.push_back({mtnlg, mtnlg_cluster, mtnlg_plans});
        if (!toy) {
            const ModelConfig gpt3 = zoo::gpt3_175b();
            const ClusterSpec gpt3_cluster = makeCluster(1024);
            inputs.setups.push_back(
                {gpt3, gpt3_cluster,
                 enumeratePlans(gpt3, gpt3_cluster, gpt3Spec())});
        }
        mape_count = toy ? 4 : 192;
    } else {
        // Every plan at global batch 1920 x k, k = 1, 2, ...: 512
        // points, of which all but the first 30 repeat a simulated
        // core already seen at another batch size.
        inputs.scan = true;
        const size_t count = toy ? 64 : 512;
        for (size_t i = 0; inputs.scan_requests.size() < count; ++i) {
            SimRequest r;
            r.model = mtnlg;
            r.cluster = mtnlg_cluster;
            r.parallel = mtnlg_plans[i % mtnlg_plans.size()];
            r.parallel.global_batch_size *=
                static_cast<int>(1 + i / mtnlg_plans.size());
            inputs.scan_requests.push_back(std::move(r));
        }
        mape_count = toy ? 4 : 192;
    }
    std::vector<size_t> ranges; // where each setup's points end
    if (inputs.scan)
        ranges.push_back(inputs.scan_requests.size());
    for (const SweepSetup &setup : inputs.setups)
        ranges.push_back((ranges.empty() ? 0 : ranges.back()) +
                         setup.plans.size());
    for (size_t o = 0; o < (toy ? 2 : kPassOrders); ++o) {
        std::vector<size_t> order(ranges.back());
        for (size_t i = 0; i < order.size(); ++i)
            order[i] = i;
        Rng rng(mixSeed(seed, 20 + o));
        size_t begin = 0;
        for (size_t end : ranges) {
            std::shuffle(order.begin() + static_cast<std::ptrdiff_t>(begin),
                         order.begin() + static_cast<std::ptrdiff_t>(end),
                         rng.engine());
            begin = end;
        }
        inputs.orders.push_back(std::move(order));
    }
    inputs.mape_sample = sampleIndices(inputs.points().size(), mape_count,
                                       mixSeed(seed, 30));
    return inputs;
}

void
startFirstService(const SweepInputs &inputs, size_t threads)
{
    if (inputs.scan) {
        SimService::Options options;
        options.n_threads = threads;
        SimService service(options);
    } else {
        Explorer explorer(inputs.setups.front().cluster, SimOptions{},
                          threads);
    }
}

std::vector<SimulationResult>
runPass(const SweepInputs &inputs, size_t pass, size_t threads,
        PassStats *stats, SpanLog *spans, int parent)
{
    const std::vector<size_t> &order =
        inputs.orders[pass % inputs.orders.size()];
    std::vector<SimulationResult> results(order.size());
    const double pass_start = now();
    if (inputs.scan) {
        std::vector<SimRequest> requests;
        requests.reserve(order.size());
        for (size_t i : order)
            requests.push_back(inputs.scan_requests[i]);
        const int build = spans->begin("SimService()", "serve/sim_service",
                                       parent);
        auto service = std::make_unique<SimService>([&] {
            SimService::Options options;
            options.n_threads = threads;
            return options;
        }());
        spans->end(build);
        const int sweep =
            spans->begin("evaluateBatch", "serve/sim_service", parent);
        std::vector<SimulationResult> answers =
            service->evaluateBatch(requests);
        spans->end(sweep);
        for (size_t j = 0; j < order.size(); ++j)
            results[order[j]] = std::move(answers[j]);
        addStats(&stats->service, service->stats());
        const int drop =
            spans->begin("~SimService", "serve/sim_service", parent);
        service.reset();
        spans->end(drop);
    } else {
        size_t begin = 0; // the setup's first position in `order`
        for (const SweepSetup &setup : inputs.setups) {
            const size_t end = begin + setup.plans.size();
            std::vector<ParallelConfig> plans;
            plans.reserve(setup.plans.size());
            for (size_t j = begin; j < end; ++j)
                plans.push_back(setup.plans[order[j] - begin]);
            const int build =
                spans->begin("Explorer()", "explore", parent);
            auto explorer = std::make_unique<Explorer>(
                setup.cluster, SimOptions{}, threads);
            spans->end(build);
            const int sweep =
                spans->begin("Explorer::sweep", "explore", parent);
            std::vector<ExploreResult> swept =
                explorer->sweep(setup.model, plans);
            spans->end(sweep);
            addStats(&stats->service, explorer->service().stats());
            for (size_t j = begin; j < end; ++j)
                results[order[j]] = std::move(swept[j - begin].sim);
            const int drop = spans->begin("~Explorer", "explore", parent);
            explorer.reset();
            spans->end(drop);
            begin = end;
        }
    }
    stats->wall_s += now() - pass_start;
    return results;
}

void
verifyPass(const SweepInputs &inputs,
           const std::vector<SimulationResult> &results,
           const Reference &reference, bool inject_mismatch,
           Verdict *verdict, std::vector<std::string> *problems)
{
    const std::vector<SimRequest> points = inputs.points();
    for (size_t i = 0; i < points.size(); ++i) {
        const std::string key = requestKey(points[i]);
        const auto golden = reference.find(key);
        bool ok = i < results.size() && golden != reference.end();
        if (ok) {
            SimulationResult answer = results[i];
            if (inject_mismatch && i == 0)
                answer.iteration_seconds =
                    std::nextafter(answer.iteration_seconds, 1e300);
            ok = resultDigest(answer) == golden->second;
        }
        verdict->count(ok);
        if (!ok && problems->size() < 5)
            problems->push_back(
                "sweep answer differs from the golden path: " + key);
    }
}

double
mapePct(const std::vector<SimRequest> &sample,
        const std::vector<SimulationResult> &predicted, size_t threads)
{
    std::vector<double> errors(sample.size(), 0.0);
    std::atomic<size_t> next{0};
    std::vector<std::thread> workers;
    for (size_t w = 0; w < threads; ++w) {
        workers.emplace_back([&] {
            for (size_t i = next++; i < sample.size(); i = next++) {
                TestbedSimulator testbed(sample[i].cluster);
                const double measured =
                    testbed
                        .measureIteration(sample[i].model,
                                          sample[i].parallel)
                        .iteration_seconds;
                errors[i] = std::fabs(predicted[i].iteration_seconds -
                                      measured) /
                            measured;
            }
        });
    }
    for (std::thread &t : workers)
        t.join();
    double sum = 0.0;
    for (double e : errors)
        sum += e;
    return sample.empty() ? 0.0
                          : 100.0 * sum / static_cast<double>(sample.size());
}

} // namespace perfbench
