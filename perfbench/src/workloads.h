/**
 * @file
 * The benchmark's workloads.  Each run is one process:
 *
 *   set-up (repeated; its median is setup_s) -> timed window ->
 *   [traced window] -> answer checks -> accuracy sample.
 *
 * The timed window of `dse_distinct` and `batch_scan` is a series of
 * cold sweep passes; `http_mixed` spends it serving open-loop HTTP.
 * Each end-to-end metric is defined on every workload: points
 * answered per host second and process CPU per point, the accuracy of
 * the points answered, set-up time and peak memory.  A traced sweep
 * run adds a short serving probe after its passes, so that the
 * serving layers have traffic to measure there too.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

// ------------------------------------------------------------ serving

/** Request kinds of the open-loop mix. */
enum class Kind : uint8_t { Hit, Miss, Batch, Scrape };

/** One scheduled request: due time from stage start, kind, payload. */
struct Arrival {
    double due_s = 0.0;
    Kind kind = Kind::Hit;
    uint32_t index = 0; //!< hot, miss or batch index (unused: scrape)
};

/** One fixed-rate stage of the open loop. */
struct Stage {
    double rate = 0.0; //!< offered requests per second (scrapes aside)
    double seconds = 0.0;
    bool nominal = false;
    bool traced = false; //!< evaluates ask for the "trace" breakdown
    std::vector<Arrival> arrivals;
};

/** The serving traffic of one run, fully generated from the seed. */
struct ServingInputs {
    double nominal_rps = 0.0;
    double p99_limit_ms = 0.0;
    std::vector<vtrain::SimRequest> hot;
    std::vector<vtrain::SimRequest> misses; //!< in consumption order
    std::vector<std::vector<uint32_t>> batches; //!< hot indices

    /** Request bodies, encoded once: [0] plain, [1] with "trace". */
    std::vector<std::string> hot_bodies[2];
    std::vector<std::string> miss_bodies[2];
    std::vector<std::string> batch_bodies;

    std::vector<Stage> ladder; //!< nominal first, then rising rates
    Stage traced_nominal;      //!< the traced window's stage
    Stage untraced_nominal;    //!< trace mode's untraced baseline
};

/** A live serving node plus the generator's connections. */
class ServingNode
{
  public:
    ServingNode();
    ~ServingNode();

    ServingNode(const ServingNode &) = delete;
    ServingNode &operator=(const ServingNode &) = delete;

    vtrain::SimService &service() { return *service_; }
    vtrain::HttpFrontend &frontend() { return *frontend_; }
    std::vector<std::unique_ptr<vtrain::net::HttpClient>> &clients()
    {
        return clients_;
    }

  private:
    std::unique_ptr<vtrain::SimService> service_;
    std::unique_ptr<vtrain::HttpFrontend> frontend_;
    std::vector<std::unique_ptr<vtrain::net::HttpClient>> clients_;
};

/** What one stage observed, request by request. */
struct StageRecord {
    Kind kind = Kind::Hit;
    uint32_t index = 0;
    int status = 0;
    bool transfer_ok = false;
    double due_s = 0.0, sent_s = 0.0, done_s = 0.0;
    size_t bytes = 0;     //!< request plus response bytes on the wire
    uint32_t body_id = 0; //!< into StageResult::bodies
};

struct StageResult {
    const Stage *stage = nullptr;
    std::vector<StageRecord> records;
    std::vector<std::string> bodies; //!< distinct response bodies
    double start_s = 0.0, end_s = 0.0;
    double cpu_s = 0.0; //!< process CPU time, client and server, over the stage
    bool passed = false;
    std::string why; //!< reason a rung failed
};

/** Sends one stage open-loop and checks it against the latency limit. */
StageResult runStage(ServingNode &node, const ServingInputs &inputs,
                     const Stage &stage);

/** End-to-end serving metrics of the nominal stage plus the ladder. */
void servingMetrics(const ServingInputs &inputs,
                    const StageResult &nominal,
                    const std::vector<StageResult> &ladder,
                    MetricList *out);

/**
 * Checks every response body against the in-process answer for its
 * request; returns the answers by requestKey for later use.
 */
void verifyServing(const ServingInputs &inputs,
                   const std::vector<const StageResult *> &stages,
                   bool inject_mismatch, Verdict *verdict,
                   std::map<std::string, vtrain::SimulationResult> *answers,
                   std::vector<std::string> *problems);

/** Per-layer metrics of one traced serving stage. */
struct ServingLayers {
    double wall_s = 0.0;          //!< stage wall time
    double latency_sum_s = 0.0;   //!< sum of due->done latencies
    double unattributed_s = 0.0;  //!< part of latency_sum_s no layer owns
};
ServingLayers servingLayerMetrics(ServingNode &node,
                                  const ServingInputs &inputs,
                                  const StageResult &traced,
                                  const HistogramSet &before,
                                  const HistogramSet &after,
                                  MetricList *out);

/**
 * The serving traffic for `seconds` of serving.  Untraced runs get
 * the ladder (`ladder`) or its nominal stage alone; trace mode gets
 * an untraced and a traced nominal stage.
 */
ServingInputs makeServingInputs(uint64_t seed, double seconds, bool toy,
                                bool trace, bool ladder);

// ------------------------------------------------------------- sweeps

/** One sweep setup: a model on a cluster with its plan list. */
struct SweepSetup {
    vtrain::ModelConfig model;
    vtrain::ClusterSpec cluster;
    std::vector<vtrain::ParallelConfig> plans; //!< seeded order
};

/** Cold-pass inputs of `dse_distinct` or `batch_scan`. */
struct SweepInputs {
    bool scan = false;            //!< batch_scan: one evaluateBatch
    std::vector<SweepSetup> setups; //!< dse_distinct
    std::vector<vtrain::SimRequest> scan_requests; //!< batch_scan
    /**
     * Pass p sends the points in the order orders[p % size()], a
     * seeded permutation of points() indices that keeps each setup's
     * points in its own range.  A run's median thus covers many orders
     * rather than the one a seed would give every pass.
     */
    std::vector<std::vector<size_t>> orders;
    std::vector<size_t> mape_sample; //!< indices into points()

    /** Every point of one pass, in generation order. */
    std::vector<vtrain::SimRequest> points() const;
};

SweepInputs makeSweepInputs(const std::string &workload, uint64_t seed,
                            bool toy);

/** Counters gathered from the services a pass created. */
struct PassStats {
    vtrain::ServiceStats service; //!< summed over the pass's services
    double wall_s = 0.0;
};

/**
 * Starts and stops the Explorer or SimService a pass opens with: the
 * part of a sweep's start a set-up measures.
 */
void startFirstService(const SweepInputs &inputs, size_t threads);

/** Runs cold pass number `pass`; results are in points() order. */
std::vector<vtrain::SimulationResult>
runPass(const SweepInputs &inputs, size_t pass, size_t threads,
        PassStats *stats, SpanLog *spans, int parent);

/** Checks a pass's answers against the golden digests. */
void verifyPass(const SweepInputs &inputs,
                const std::vector<vtrain::SimulationResult> &results,
                const Reference &reference, bool inject_mismatch,
                Verdict *verdict, std::vector<std::string> *problems);

/**
 * Mean absolute percentage error of `predicted` against the
 * TestbedPerturber surrogate, over `sample` (pairs of request and
 * predicted result).  Runs on `threads` workers.
 */
double mapePct(const std::vector<vtrain::SimRequest> &sample,
               const std::vector<vtrain::SimulationResult> &predicted,
               size_t threads);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
