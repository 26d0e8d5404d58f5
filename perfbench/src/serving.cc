/**
 * @file
 * Open-loop HTTP serving: an HttpFrontend over a SimService on
 * loopback, two admission tenants, and a seeded arrival schedule sent
 * through at most four keep-alive connections.  Every latency runs
 * from the request's due time, so a stalled connection charges its
 * wait to the requests queued behind it.
 */
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "workloads.h"

namespace perfbench {

using namespace vtrain;

namespace {

const char *const kApiKeys[2] = {"perfbench-key-a", "perfbench-key-b"};
constexpr size_t kHotSize = 256;
constexpr size_t kBatchSize = 8;
constexpr double kMissFrac = 0.10;
constexpr double kBatchFrac = 0.02;
constexpr double kScrapeHz = 2.0;
constexpr double kZipfS = 1.1;

/** The p99 limit a ladder rung must meet (see README.md). */
constexpr double kP99LimitMs = 50.0;

/**
 * Rungs as multiples of the nominal rate, run in this order until one
 * fails.  The first is the nominal stage; above 2x the steps are ~15%,
 * so a rung that flips between runs moves max_rate_rps by that much.
 */
const double kLadder[] = {1.0, 2.0, 2.3, 2.65, 3.05, 3.5,
                          4.0, 4.6, 5.3, 6.1, 7.0, 8.0};

/**
 * Connections are split into two lanes, one per tenant: an
 * interactive tenant sending the cache hits, and a planning tenant
 * sending the cold misses, the batches and the scrapes.  A hit never
 * waits for a connection stuck behind a slow miss, so hit latency
 * shows what the server does to hits, not the generator's own
 * head-of-line blocking.
 */
size_t
laneOf(size_t worker)
{
    return benchThreads() < 2 ? 0 : (worker < benchThreads() / 2 ? 0 : 1);
}

size_t
laneOf(Kind kind)
{
    return benchThreads() < 2 || kind == Kind::Hit ? 0 : 1;
}

/** The miss pool: scaled zoo models on 16-128 GPUs, batch x k. */
std::vector<SimRequest>
missPool(size_t need)
{
    const ModelConfig models[] = {zoo::scaled3_6b(), zoo::scaled18_4b(),
                                  zoo::scaled39_1b()};
    std::vector<SimRequest> base;
    for (const ModelConfig &model : models) {
        for (int gpus : {16, 32, 64, 128}) {
            SweepSpec spec;
            spec.global_batch_size =
                model.hidden_size == 3072 ? 512
                                          : zoo::tableIIIBatchSize(model);
            spec.max_data = 64;
            spec.micro_batch_sizes = {1, 2, 4};
            const ClusterSpec cluster = makeCluster(gpus);
            for (const ParallelConfig &plan :
                 enumeratePlans(model, cluster, spec)) {
                SimRequest r;
                r.model = model;
                r.cluster = cluster;
                r.parallel = plan;
                base.push_back(std::move(r));
            }
        }
    }
    std::vector<SimRequest> pool;
    for (int k = 1; pool.size() < need; ++k) {
        if (k > 64)
            throw std::runtime_error("miss pool too small");
        for (const SimRequest &r : base) {
            SimRequest scaled = r;
            scaled.parallel.global_batch_size *= k;
            if (scaled.valid())
                pool.push_back(std::move(scaled));
        }
    }
    return pool;
}

std::string
evaluateBody(const SimRequest &request, bool traced)
{
    json::Value body = wire::v1::encode(request);
    if (traced)
        body.set("trace", true);
    return body.dump();
}

/** Seeded stage schedule: Poisson arrivals plus fixed-rate scrapes. */
struct Scheduler {
    std::vector<double> zipf_cdf;
    size_t misses = 0;
    size_t batches = 0;
    std::vector<std::vector<uint32_t>> *batch_members;

    uint32_t
    zipf(Rng &rng) const
    {
        const double u = rng.uniform(0.0, zipf_cdf.back());
        return static_cast<uint32_t>(
            std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
            zipf_cdf.begin());
    }

    Stage
    build(double rate, double seconds, uint64_t seed)
    {
        Stage stage;
        stage.rate = rate;
        stage.seconds = seconds;
        Rng rng(seed);
        for (double t = rng.exponential(rate); t < seconds;
             t += rng.exponential(rate)) {
            Arrival a;
            a.due_s = t;
            const double u = rng.uniform(0.0, 1.0);
            if (u < kMissFrac) {
                a.kind = Kind::Miss;
                a.index = static_cast<uint32_t>(misses++);
            } else if (u < kMissFrac + kBatchFrac) {
                a.kind = Kind::Batch;
                a.index = static_cast<uint32_t>(batches++);
                std::vector<uint32_t> members(kBatchSize);
                for (uint32_t &m : members)
                    m = zipf(rng);
                batch_members->push_back(std::move(members));
            } else {
                a.kind = Kind::Hit;
                a.index = zipf(rng);
            }
            stage.arrivals.push_back(a);
        }
        for (double t = 0.5 / kScrapeHz; t < seconds; t += 1.0 / kScrapeHz)
            stage.arrivals.push_back(Arrival{t, Kind::Scrape, 0});
        std::stable_sort(stage.arrivals.begin(), stage.arrivals.end(),
                         [](const Arrival &a, const Arrival &b) {
                             return a.due_s < b.due_s;
                         });
        return stage;
    }
};

void
sleepUntil(double when_s)
{
    const double now_s = now();
    if (when_s <= now_s)
        return;
    // steady_clock is CLOCK_MONOTONIC on Linux, so its epoch is the
    // absolute-time base clock_nanosleep expects.
    timespec ts;
    ts.tv_sec = static_cast<time_t>(when_s);
    ts.tv_nsec = static_cast<long>((when_s - std::floor(when_s)) * 1e9);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

uint64_t
bodyHash(const std::string &body)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : body) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<double>
latenciesMs(const StageResult &result, Kind kind, bool all = false)
{
    std::vector<double> out;
    for (const StageRecord &r : result.records)
        if (all || r.kind == kind)
            out.push_back((r.done_s - r.due_s) * 1e3);
    return out;
}

std::string
samples(size_t n)
{
    return "n=" + std::to_string(n);
}

/** Median of `fn` timed over `reps` calls, in microseconds. */
template <typename Fn>
double
timedUs(size_t reps, Fn &&fn)
{
    std::vector<double> us;
    for (size_t i = 0; i < reps; ++i) {
        const double t0 = now();
        fn(i);
        us.push_back((now() - t0) * 1e6);
    }
    return median(us);
}

} // namespace

ServingInputs
makeServingInputs(uint64_t seed, double seconds, bool toy, bool trace,
                  bool ladder)
{
    ServingInputs in;
    in.nominal_rps = toy ? 200.0 : 1000.0;
    in.p99_limit_ms = kP99LimitMs;
    const double budget = seconds;

    Scheduler schedule;
    schedule.batch_members = &in.batches;
    double cumulative = 0.0;
    for (size_t r = 0; r < kHotSize; ++r) {
        cumulative += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        schedule.zipf_cdf.push_back(cumulative);
    }

    // Untraced: the nominal stage takes 60% of the budget and each
    // further rung (http_mixed only) 5%.  Trace mode instead runs the
    // nominal stage twice, untraced then traced.
    const double nominal_s = budget * 0.6;
    if (!trace) {
        for (size_t i = 0; i < (ladder ? std::size(kLadder) : 1); ++i) {
            Stage stage = schedule.build(in.nominal_rps * kLadder[i],
                                        i == 0 ? nominal_s : budget * 0.05,
                                        mixSeed(seed, 100 + i));
            stage.nominal = i == 0;
            in.ladder.push_back(std::move(stage));
        }
    } else {
        in.untraced_nominal =
            schedule.build(in.nominal_rps, nominal_s, mixSeed(seed, 200));
        in.traced_nominal =
            schedule.build(in.nominal_rps, nominal_s, mixSeed(seed, 201));
        in.untraced_nominal.nominal = in.traced_nominal.nominal = true;
        in.traced_nominal.traced = true;
    }

    // The pool is dealt round-robin over its (model, GPUs) cells, each
    // cell in batch-multiple order with its plans shuffled within one
    // multiple.  So every seed's hot set and miss stream hold the same
    // models, cluster sizes and batch multiples at the same positions,
    // and only the plans follow the seed.  A plain shuffle lets the
    // seed pick how many large models and large batches (whose graphs
    // grow with the batch) the hot set and the misses get, which moved
    // set-up time and CPU per point by a third between seeds.
    std::map<std::string, std::vector<SimRequest>> cells;
    for (SimRequest &r : missPool(kHotSize + schedule.misses))
        cells[r.model.name + "|" + std::to_string(r.cluster.totalGpus())]
            .push_back(std::move(r));
    Rng rng(mixSeed(seed, 300));
    for (auto &[key, cell] : cells) {
        for (auto run = cell.begin(); run != cell.end();) {
            const auto end = std::find_if(
                run, cell.end(), [&](const SimRequest &r) {
                    return r.parallel.global_batch_size !=
                           run->parallel.global_batch_size;
                });
            std::shuffle(run, end, rng.engine());
            run = end;
        }
    }
    std::vector<SimRequest> pool;
    for (size_t i = 0; pool.size() < kHotSize + schedule.misses; ++i)
        for (const auto &[key, cell] : cells)
            if (i < cell.size())
                pool.push_back(cell[i]);
    in.hot.assign(pool.begin(), pool.begin() + kHotSize);
    in.misses.assign(pool.begin() + kHotSize,
                     pool.begin() + kHotSize + schedule.misses);

    for (int traced = 0; traced < (trace ? 2 : 1); ++traced) {
        for (const SimRequest &r : in.hot)
            in.hot_bodies[traced].push_back(evaluateBody(r, traced));
        for (const SimRequest &r : in.misses)
            in.miss_bodies[traced].push_back(evaluateBody(r, traced));
    }
    for (const std::vector<uint32_t> &members : in.batches) {
        json::Value requests = json::Value::array();
        for (uint32_t m : members)
            requests.push(wire::v1::encode(in.hot[m]));
        json::Value body = json::Value::object();
        body.set("version", int64_t{1});
        body.set("requests", std::move(requests));
        in.batch_bodies.push_back(body.dump());
    }
    return in;
}

ServingNode::ServingNode()
{
    // One CPU stays free for the event loop and the generator, which
    // share this host with the node.
    SimService::Options service_options;
    service_options.n_threads = benchThreads();
    service_ = std::make_unique<SimService>(service_options);

    HttpFrontend::Options options;
    for (int t = 0; t < 2; ++t) {
        TenantConfig tenant;
        tenant.name = t == 0 ? "tenant-a" : "tenant-b";
        // Quotas far above the ladder: admission runs its token
        // bucket on every request but never sheds a passing rung.
        tenant.rate_per_sec = 1e6;
        tenant.burst = 1e6;
        options.tenants.by_api_key[kApiKeys[t]] = tenant;
    }
    frontend_ = std::make_unique<HttpFrontend>(*service_, options);
    std::string error;
    if (!frontend_->start(&error))
        throw std::runtime_error("cannot start the frontend: " + error);
    for (size_t w = 0; w < benchThreads(); ++w) {
        net::HttpClient::Options client;
        client.host = "127.0.0.1";
        client.port = frontend_->port();
        client.headers.push_back({"X-Api-Key", kApiKeys[laneOf(w)]});
        clients_.push_back(std::make_unique<net::HttpClient>(client));
    }
}

ServingNode::~ServingNode()
{
    clients_.clear();
    frontend_->stop();
}

StageResult
runStage(ServingNode &node, const ServingInputs &inputs, const Stage &stage)
{
    StageResult result;
    result.stage = &stage;
    const size_t n = stage.arrivals.size();
    result.records.resize(n);
    std::vector<uint8_t> worker_of(n, 0);
    const size_t workers = node.clients().size();
    std::vector<std::vector<std::string>> local_bodies(workers);
    // Each lane pulls its own arrivals in due order.
    std::vector<size_t> lane_arrivals[2];
    for (size_t i = 0; i < n; ++i)
        lane_arrivals[laneOf(stage.arrivals[i].kind)].push_back(i);
    std::atomic<size_t> cursor[2] = {0, 0};
    const int traced = stage.traced ? 1 : 0;
    const double start = now() + 0.002;

    auto work = [&](size_t w) {
        // Wake within microseconds of each due time.
        prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
        net::HttpClient &client = *node.clients()[w];
        std::unordered_map<uint64_t, uint32_t> seen;
        net::HttpResponse response;
        std::string error;
        const std::vector<size_t> &mine = lane_arrivals[laneOf(w)];
        for (size_t k = cursor[laneOf(w)]++; k < mine.size();
             k = cursor[laneOf(w)]++) {
            const size_t i = mine[k];
            const Arrival &a = stage.arrivals[i];
            StageRecord &rec = result.records[i];
            rec.kind = a.kind;
            rec.index = a.index;
            rec.due_s = start + a.due_s;
            sleepUntil(rec.due_s);
            const std::string *body = nullptr;
            rec.sent_s = now();
            switch (a.kind) {
            case Kind::Hit:
                body = &inputs.hot_bodies[traced][a.index];
                break;
            case Kind::Miss:
                body = &inputs.miss_bodies[traced][a.index];
                break;
            case Kind::Batch:
                body = &inputs.batch_bodies[a.index];
                break;
            case Kind::Scrape:
                break;
            }
            if (body != nullptr)
                rec.transfer_ok = client.post(
                    a.kind == Kind::Batch ? "/v1/evaluate_batch"
                                          : "/v1/evaluate",
                    *body, &response, &error);
            else
                rec.transfer_ok = client.get("/metricsz", &response, &error);
            rec.done_s = now();
            rec.status = rec.transfer_ok ? response.status : 0;
            rec.bytes = (body ? body->size() : 0) + response.body.size();
            const uint64_t h = bodyHash(response.body);
            auto [it, fresh] = seen.emplace(
                h, static_cast<uint32_t>(local_bodies[w].size()));
            if (fresh)
                local_bodies[w].push_back(std::move(response.body));
            rec.body_id = it->second;
            worker_of[i] = static_cast<uint8_t>(w);
        }
    };
    const double cpu0 = cpuSeconds();
    std::vector<std::thread> threads;
    for (size_t w = 0; w < workers; ++w)
        threads.emplace_back(work, w);
    for (std::thread &t : threads)
        t.join();
    result.cpu_s = cpuSeconds() - cpu0;
    result.start_s = start;
    result.end_s = start;
    for (const StageRecord &r : result.records)
        result.end_s = std::max(result.end_s, r.done_s);

    std::vector<uint32_t> offset(workers, 0);
    for (size_t w = 0; w < workers; ++w) {
        offset[w] = static_cast<uint32_t>(result.bodies.size());
        for (std::string &b : local_bodies[w])
            result.bodies.push_back(std::move(b));
    }
    for (size_t i = 0; i < n; ++i)
        result.records[i].body_id += offset[worker_of[i]];

    // A rung passes with every request answered 200, p99 within the
    // limit, and no backlog: the last quarter's send lag is not
    // growing past the first quarter's.
    size_t failed = 0;
    std::vector<double> first_lag, last_lag;
    for (size_t i = 0; i < n; ++i) {
        const StageRecord &r = result.records[i];
        if (!r.transfer_ok || r.status != 200)
            ++failed;
        const double lag_ms = (r.sent_s - r.due_s) * 1e3;
        if (i < n / 4)
            first_lag.push_back(lag_ms);
        else if (i >= n - n / 4)
            last_lag.push_back(lag_ms);
    }
    const double p99 = percentile(latenciesMs(result, Kind::Hit, true), 99);
    const double lag_growth = median(last_lag) - median(first_lag);
    result.passed = failed == 0 && p99 <= inputs.p99_limit_ms &&
                    lag_growth < inputs.p99_limit_ms / 5;
    if (failed)
        result.why = std::to_string(failed) + " failed or shed";
    else if (p99 > inputs.p99_limit_ms)
        result.why = "p99 " + num(p99) + " ms over the limit";
    else if (!result.passed)
        result.why = "backlog growing (" + num(lag_growth) + " ms)";
    return result;
}

void
servingMetrics(const ServingInputs &inputs, const StageResult &nominal,
               const std::vector<StageResult> &ladder, MetricList *out)
{
    const std::vector<double> hits = latenciesMs(nominal, Kind::Hit);
    const std::vector<double> misses = latenciesMs(nominal, Kind::Miss);
    const std::vector<double> batches = latenciesMs(nominal, Kind::Batch);
    const std::vector<double> scrapes = latenciesMs(nominal, Kind::Scrape);
    // Request latencies swing with the host's wake-up latency and its
    // neighbours more than a gate can absorb: they are reported, not
    // gated (see README.md).
    out->add("hit_p50_ms", percentile(hits, 50), "ms",
             samples(hits.size()), false);
    out->add("hit_p99_ms", percentile(hits, 99), "ms",
             samples(hits.size()), false);
    out->add("miss_p50_ms", percentile(misses, 50), "ms",
             samples(misses.size()), false);
    out->add("miss_p99_ms", percentile(misses, 99), "ms",
             samples(misses.size()), false);
    out->add("batch_p50_ms", percentile(batches, 50), "ms",
             samples(batches.size()), false);
    out->add("scrape_p50_ms", percentile(scrapes, 50), "ms",
             samples(scrapes.size()), false);
    if (ladder.size() < 2)
        return;

    double max_rate = 0.0;
    std::string note;
    for (const StageResult &rung : ladder) {
        note += std::to_string(std::lround(rung.stage->rate)) +
                (rung.passed ? ":pass " : ":fail ");
        if (!rung.passed)
            break;
        max_rate = rung.stage->rate;
    }
    out->add("max_rate_rps", max_rate, "1/s",
             note + "(p99 limit " + num(inputs.p99_limit_ms) + " ms)", false);
}

void
verifyServing(const ServingInputs &inputs,
              const std::vector<const StageResult *> &stages,
              bool inject_mismatch, Verdict *verdict,
              std::map<std::string, SimulationResult> *answers,
              std::vector<std::string> *problems)
{
    // The in-process answer for every request the stages sent.
    std::vector<SimRequest> wanted = inputs.hot;
    for (const StageResult *stage : stages)
        for (const StageRecord &r : stage->records)
            if (r.kind == Kind::Miss)
                wanted.push_back(inputs.misses[r.index]);
    SimService::Options options;
    options.n_threads = benchThreads();
    SimService reference(options);
    const std::vector<SimulationResult> computed =
        reference.evaluateBatch(wanted);
    std::map<std::string, uint64_t> expected;
    for (size_t i = 0; i < wanted.size(); ++i) {
        const std::string key = requestKey(wanted[i]);
        expected[key] = resultDigest(computed[i]);
        (*answers)[key] = computed[i];
    }

    auto fail = [&](const std::string &why) {
        if (problems->size() < 5)
            problems->push_back(why);
        return false;
    };
    bool injected = !inject_mismatch;
    auto matches = [&](const json::Value &doc, const SimRequest &request) {
        SimulationResult result;
        std::string error;
        if (!wire::v1::decode(doc, &result, &error))
            return fail("undecodable answer: " + error);
        if (!injected) {
            result.iteration_seconds =
                std::nextafter(result.iteration_seconds, 1e300);
            injected = true;
        }
        if (resultDigest(result) != expected[requestKey(request)])
            return fail("HTTP answer differs from the in-process one: " +
                        requestKey(request));
        return true;
    };

    for (const StageResult *stage : stages) {
        for (const StageRecord &r : stage->records) {
            const std::string &body = stage->bodies[r.body_id];
            bool ok = r.transfer_ok && r.status == 200;
            if (!ok) {
                fail("request failed with status " +
                     std::to_string(r.status));
                verdict->count(false);
                continue;
            }
            json::Value doc;
            std::string error;
            if (r.kind == Kind::Scrape) {
                ok = body.find("vtrain_http_requests_total") !=
                         std::string::npos ||
                     fail("scrape lacks the request counter");
            } else if (!json::Value::parse(body, &doc, &error)) {
                ok = fail("unparsable body: " + error);
            } else if (r.kind == Kind::Batch) {
                const json::Value *results = doc.find("results");
                const std::vector<uint32_t> &members =
                    inputs.batches[r.index];
                ok = results && results->isArray() &&
                     results->items().size() == members.size();
                for (size_t k = 0; ok && k < members.size(); ++k)
                    ok = matches(results->items()[k],
                                 inputs.hot[members[k]]);
                if (!ok && !(results && results->isArray()))
                    fail("batch answer malformed");
            } else {
                ok = matches(doc, r.kind == Kind::Hit
                                      ? inputs.hot[r.index]
                                      : inputs.misses[r.index]);
            }
            verdict->count(ok);
        }
    }
}

ServingLayers
servingLayerMetrics(ServingNode &node, const ServingInputs &inputs,
                    const StageResult &traced, const HistogramSet &before,
                    const HistogramSet &after, MetricList *out)
{
    ServingLayers layers;
    layers.wall_s = traced.end_s - traced.start_s;

    // Client side: schedule lag, round trips, payload bytes.
    double lag_sum = 0.0, rtt_sum = 0.0, bytes = 0.0;
    std::vector<double> lag_ms;
    size_t n_eval = 0, n_v1 = 0, n_batch = 0, n_scrape = 0;
    double eval_server_us = 0.0;
    std::vector<double> hit_eval_us;
    for (const StageRecord &r : traced.records) {
        lag_sum += r.sent_s - r.due_s;
        rtt_sum += r.done_s - r.sent_s;
        lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
        bytes += static_cast<double>(r.bytes);
        layers.latency_sum_s += r.done_s - r.due_s;
        if (r.kind == Kind::Scrape) {
            ++n_scrape;
            continue;
        }
        ++n_v1;
        if (r.kind == Kind::Batch) {
            ++n_batch;
            continue;
        }
        ++n_eval;
        // The per-request "trace" breakdown: SimService::evaluate as
        // the server saw it, and the simulator phases inside it.
        json::Value doc;
        std::string error;
        if (!json::Value::parse(traced.bodies[r.body_id], &doc, &error))
            continue;
        const json::Value *trace = doc.find("trace");
        if (!trace || !trace->isObject())
            continue;
        const json::Value *total = trace->find("total_us");
        const double total_us = total ? total->asNumber() : 0.0;
        eval_server_us += total_us;
        if (r.kind == Kind::Hit)
            hit_eval_us.push_back(total_us);
    }
    const double n_all = static_cast<double>(traced.records.size());

    // Server side, from the registry deltas over the stage.
    const auto server = histogramDelta(after, before,
                                       "vtrain_http_request_seconds");
    const auto evaluate_route = histogramDelta(
        after, before, "vtrain_http_request_seconds",
        {{"route", "/v1/evaluate"}});
    const auto batch_route = histogramDelta(
        after, before, "vtrain_http_request_seconds",
        {{"route", "/v1/evaluate_batch"}});
    const auto scrape_route = histogramDelta(
        after, before, "vtrain_http_request_seconds",
        {{"route", "/metricsz"}});
    const auto wait = histogramDelta(after, before,
                                     "vtrain_pool_task_wait_seconds");
    const auto hit_service = histogramDelta(
        after, before, "vtrain_service_evaluate_seconds",
        {{"outcome", "cache_hit"}});
    const auto computed_service = histogramDelta(
        after, before, "vtrain_service_evaluate_seconds",
        {{"outcome", "computed"}});

    const HttpFrontendStats stats = node.frontend().stats();

    // The benchmark's own spans around single calls into each layer,
    // on the payloads the stage sent.
    std::vector<std::string> raw;
    for (size_t i = 0; i < inputs.hot.size(); ++i) {
        net::HttpRequest request;
        request.method = "POST";
        request.target = "/v1/evaluate";
        request.headers.push_back({"Host", "127.0.0.1"});
        request.headers.push_back({"X-Api-Key", kApiKeys[i % 2]});
        request.headers.push_back({"Content-Type", "application/json"});
        request.body = inputs.hot_bodies[0][i];
        raw.push_back(net::serializeRequest(request));
    }
    const size_t reps = 256;
    const double parse_us = timedUs(reps, [&](size_t i) {
        std::string buffer = raw[i % raw.size()];
        net::HttpRequestParser parser;
        net::HttpRequest parsed;
        parser.parse(&buffer, &parsed);
    });
    const double decode_us = timedUs(reps, [&](size_t i) {
        SimRequest request;
        bool want_trace = false;
        int64_t deadline_ms = -1;
        net::HttpResponse error;
        wire::v1::decodeEvaluateRequest(
            inputs.hot_bodies[0][i % inputs.hot.size()], &request,
            &want_trace, &deadline_ms, &error);
    });
    std::vector<SimulationResult> hot_answers;
    for (const SimRequest &r : inputs.hot)
        hot_answers.push_back(node.service().evaluate(r));
    const double encode_us = timedUs(reps, [&](size_t i) {
        (void)wire::v1::encodeEvaluateResponse(
            hot_answers[i % hot_answers.size()]);
    });
    std::vector<SimulationResult> batch_answers(
        hot_answers.begin(),
        hot_answers.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(kBatchSize, hot_answers.size())));
    const double batch_encode_us = timedUs(reps, [&](size_t) {
        (void)wire::v1::encodeEvaluateBatchResponse(batch_answers);
    });
    util::MetricRegistry private_registry;
    AdmissionController::Options admission_options;
    for (int t = 0; t < 2; ++t) {
        TenantConfig tenant;
        tenant.name = t == 0 ? "tenant-a" : "tenant-b";
        tenant.rate_per_sec = 1e6;
        tenant.burst = 1e6;
        admission_options.tenants.by_api_key[kApiKeys[t]] = tenant;
    }
    admission_options.metrics = &private_registry;
    AdmissionController admission(admission_options);
    const std::string keys[2] = {kApiKeys[0], kApiKeys[1]};
    const double admit_us = timedUs(reps, [&](size_t i) {
        AdmissionDecision decision = admission.admit(&keys[i % 2]);
        decision.ticket.release();
    });
    const double render_ms =
        timedUs(9, [](size_t) {
            (void)util::MetricRegistry::global().renderPrometheus();
        }) /
        1e3;

    uint64_t shed = 0;
    for (const AdmissionController::TenantStats &t : stats.tenants)
        shed += t.shed_rate + t.shed_inflight + t.shed_queue + t.shed_auth;

    out->add("net.parse_us", parse_us, "us", "in-process, median");
    out->add("net.server_p50_us",
             evaluate_route.percentile(50) * 1e6, "us",
             samples(evaluate_route.count));
    out->add("net.transport_us",
             n_all ? (rtt_sum - server.sum) / n_all * 1e6 : 0.0, "us",
             "client round trip minus server time, mean");
    out->add("net.bytes_per_req", n_all ? bytes / n_all : 0.0, "bytes",
             "request plus response payload");
    out->add("wire.decode_us", decode_us, "us", "in-process, median");
    out->add("wire.encode_us", encode_us, "us", "in-process, median");
    out->add("wire.batch_encode_us", batch_encode_us, "us",
             std::to_string(kBatchSize) + " results, median");
    out->add("admission.admit_us", admit_us, "us", "in-process, median");
    out->add("admission.shed", static_cast<double>(shed), "count");
    out->add("cache.lookup_us", median(hit_eval_us), "us",
             "server-side evaluate() of a hit, " +
                 samples(hit_eval_us.size()));
    const ServiceStats service = stats.service;
    out->add("cache.hit_ratio", service.cache.hitRate(), "ratio");
    out->add("cache.evictions", static_cast<double>(service.cache.evictions),
             "count");
    out->add("cache.bytes", static_cast<double>(service.cache.bytes),
             "bytes");
    out->add("metrics.render_ms", render_ms, "ms", "in-process, median");
    out->add("service.hit_p50_us", hit_service.percentile(50) * 1e6, "us",
             samples(hit_service.count));
    out->add("service.computed_p50_ms",
             computed_service.percentile(50) * 1e3, "ms",
             samples(computed_service.count));
    out->add("pool.wait_p99_ms", wait.percentile(99) * 1e3, "ms",
             samples(wait.count));
    out->add("gen.lag_p99_ms", percentile(lag_ms, 99), "ms",
             samples(lag_ms.size()));
    out->add("gen.sent", n_all, "count");

    // Every latency second is owned by one layer: the generator's lag,
    // the transport (round trip minus server time), pool queueing,
    // SimService::evaluate (its trace), wire and admission (per-call
    // costs above, times the calls made), the batch and scrape
    // handlers (their route time less their share of pool waiting).
    // The rest is unattributed.
    const double mean_wait =
        wait.count ? wait.sum / static_cast<double>(wait.count) : 0.0;
    const double attributed =
        lag_sum + (rtt_sum - server.sum) + wait.sum +
        eval_server_us * 1e-6 +
        static_cast<double>(n_eval) * (decode_us + encode_us) * 1e-6 +
        static_cast<double>(n_v1) * admit_us * 1e-6 +
        (batch_route.sum - static_cast<double>(n_batch) * mean_wait) +
        (scrape_route.sum - static_cast<double>(n_scrape) * mean_wait);
    layers.unattributed_s =
        std::max(0.0, layers.latency_sum_s - attributed);
    return layers;
}

} // namespace perfbench
