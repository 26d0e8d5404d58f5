/**
 * @file
 * The vTrain simulator facade (paper Fig. 4, steps 1-5).
 *
 * Ties the pipeline together: input description -> operator graph ->
 * operator-to-task lookup table -> task graph -> Algorithm 1 -> the
 * predicted single-iteration training time, plus end-to-end training
 * time and utilization projections.
 *
 * Fast mode: the paper's key structural observation is that training
 * iterations are statically determined and repetitive.  Beyond the
 * pipeline warmup/drain, every additional micro-batch adds a constant
 * steady-state period, so the iteration time is affine in the
 * micro-batch count.  Fast mode simulates two capped micro-batch
 * counts (2p+2 and 2p+3) exactly and extrapolates the affine tail;
 * exact and fast mode agree to floating-point tolerance (covered by
 * tests), while design-space sweeps run orders of magnitude faster.
 * Neither capped run depends on the global batch size -- only the
 * affine tail does -- so a batch-size scan shares its simulated runs:
 * simulateIterationBatch() simulates each distinct core (batchCore())
 * once and derives every batch size's result from it.
 *
 * Build-once / retime-many: graph construction and task expansion are
 * ~97% of a cold simulation, yet the resulting topology depends only
 * on structural inputs (see graph/template.h).  The simulator keys an
 * LRU template cache by structural fingerprint; on a hit it re-times
 * the cached topology in O(tasks) instead of rebuilding it, with
 * bit-identical results.  The cache can be shared across Simulator
 * instances (the serve layer passes one cache to every request) and
 * is skipped for perturbed or non-memoized (ablation) runs.
 *
 * One timing path: simulateIteration() is simulateIterationBatch() on
 * a group of one.  Per simulated micro-batch count, the pipeline
 * fetches the template once; on a miss (or a retime rejection) it
 * captures one, and the capture's own expansion supplies the first
 * core's durations.  Every other core is re-timed.  Every core, the
 * first included, is then replayed over the template's topology,
 * whose task ids are the queue engine's execution order, so each run
 * is one linear pass (sim/engine.h); distinct cores replay in lockstep
 * over the shared topology.  Template-less runs -- a null cache, a
 * perturber, or the non-memoized ablation -- build, expand and run the
 * queue engine per plan: that path is the golden reference the
 * template path is tested bit-identical against, and the only one the
 * queue engine times.
 */
#ifndef VTRAIN_SIM_SIMULATOR_H
#define VTRAIN_SIM_SIMULATOR_H

#include <memory>

#include "comm/comm_model.h"
#include "graph/builder.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"
#include "sim/result.h"

namespace vtrain {

/** Simulator-level options. */
struct SimOptions {
    /** Enable affine micro-batch extrapolation (see file comment). */
    bool fast_mode = true;

    /** Disable the necessary-operator memoization (ablation only). */
    bool memoize_profiles = true;

    /** Collapse operator kernel chains to single tasks (ablation). */
    bool collapse_operators = false;

    /** Attention-kernel implementation of the modelled framework. */
    AttentionImpl attention = AttentionImpl::Megatron;

    /** Optional duration perturbation (the testbed surrogate). */
    const Perturber *perturber = nullptr;

    /** Pointer comparison for `perturber`: same object, same options. */
    bool operator==(const SimOptions &) const = default;
};

class Hash64;
class GraphTemplate;
class GraphTemplateCache;
class OperatorToTaskTable;
class ThreadPool;

/**
 * Folds the options into a fingerprint stream.  The perturber is
 * hashed by address, so the digest is canonical across processes only
 * when `perturber == nullptr`; the serve layer refuses to cache (or
 * serialize) perturbed requests for exactly this reason.
 */
void hashAppend(Hash64 &h, const SimOptions &options);

/** @return a stable 64-bit hash of the options (see hashAppend). */
uint64_t hashValue(const SimOptions &options);

/** End-to-end training projection for a fixed token budget. */
struct TrainingProjection {
    double iteration_seconds = 0.0;
    double num_iterations = 0.0;
    double total_seconds = 0.0;
    double total_days = 0.0;
    double utilization = 0.0;
};

/** The profiling-driven LLM training-time simulator. */
class Simulator
{
  public:
    /** Simulator with a private graph-template cache. */
    explicit Simulator(ClusterSpec cluster, SimOptions options = {});

    /**
     * Simulator sharing `templates` with other instances (the serve
     * layer passes one cache to every per-request Simulator).  A null
     * cache disables the template path entirely: every simulation
     * builds its graphs from scratch and runs them on the queue
     * engine (golden tests use this to check the template + replay
     * path bit-identical to it).  A non-null
     * `counters` shares engine-mode counters the same way (the serve
     * layer reports them on /statz); null keeps private counters.
     */
    Simulator(ClusterSpec cluster, SimOptions options,
              std::shared_ptr<GraphTemplateCache> templates,
              std::shared_ptr<EngineCounters> counters = nullptr);

    /** Predicts the single-iteration training time of a plan: a
     *  simulateIterationBatch() of one. */
    SimulationResult simulateIteration(const ModelConfig &model,
                                       const ParallelConfig &parallel);

    /**
     * Evaluates a structurally uniform group of plans in one batched
     * pass.  The plans are first merged into distinct cores
     * (batchCore(): the plan without its global batch size).  The
     * task-graph topology is fetched (or captured, its expansion
     * supplying the first core's durations) once per simulated
     * micro-batch count, every other core contributes one re-timed
     * duration vector per count, and the engine simulates them all in
     * lockstep over the shared topology (engine.h replayBatch).  Every
     * plan's result is then assembled from its core's runs, so a
     * K-point group costs one template fetch, one retime and replay
     * per distinct core, and K cheap assemblies.  One shared lookup
     * table profiles each distinct operator once for the whole group.
     *
     * Results are identical (modulo sim_wall_seconds, which is the
     * group's wall time split evenly) to calling simulateIteration()
     * per plan and to the template-less path.  Plans must share this
     * simulator's cluster and options.  Mixed batchGroupKey()s time
     * each plan as a group of one; templates disabled, a perturber or
     * the non-memoized ablation take the template-less path per plan.
     * A retime rejection re-captures the template in place.  A retime
     * that throws on a pool worker is rethrown on the calling thread.
     * EngineCounters::core_merges counts the points answered from
     * another point's core.
     */
    std::vector<SimulationResult>
    simulateIterationBatch(const ModelConfig &model,
                           const std::vector<ParallelConfig> &plans);

    /**
     * Projects end-to-end wall-clock training time: iteration time
     * times the iteration count needed to consume `total_tokens`
     * (Sec. III-E).
     */
    TrainingProjection projectTraining(const ModelConfig &model,
                                       const ParallelConfig &parallel,
                                       double total_tokens);

    const ClusterSpec &cluster() const { return cluster_; }
    const CommModel &commModel() const { return comm_; }
    const SimOptions &options() const { return options_; }

    /** The graph-template cache (may be null; see constructors). */
    const std::shared_ptr<GraphTemplateCache> &templateCache() const
    {
        return templates_;
    }

    /** The engine-mode counters (never null; see constructors). */
    const std::shared_ptr<EngineCounters> &engineCounters() const
    {
        return counters_;
    }

    /**
     * Optional worker pool for simulateIterationBatch(): a group's
     * per-plan retimes (measured at ~¼ of group cost, embarrassingly
     * parallel) are spread across `pool` and overlapped with the
     * engine's replay of the previous chunk.  Non-owning; null (the
     * default) re-times serially.  Results are bit-identical either
     * way — retiming is a pure function of the plan, and the shared
     * profiler table is only read concurrently (see the batch loop
     * for the prefill argument).  Safe even when the caller itself
     * runs on `pool`: the loop is cooperative (ThreadPool::startFor),
     * so progress never depends on free pool capacity.
     */
    void setRetimePool(ThreadPool *pool) { retime_pool_ = pool; }

    /** The retime pool (null = serial; see setRetimePool). */
    ThreadPool *retimePool() const { return retime_pool_; }

  private:
    struct RunOutcome {
        EngineResult engine;
        size_t num_operators = 0;
        size_t num_tasks = 0;
        size_t distinct_profiled = 0;
        size_t profiler_calls = 0;
    };

    /** Builds the operator graph of one iteration with n_micro
     *  micro-batches. */
    OpGraph buildOps(const ModelConfig &model,
                     const ParallelConfig &parallel, int n_micro) const;

    /** The expansion options of this simulator's runs. */
    ExpandOptions expandOptions() const;

    /**
     * The template-less path's run: builds, expands and times one
     * iteration with n_micro micro-batches on the queue engine.  The
     * lookup table is owned by the caller so fast mode's two capped
     * runs profile each distinct operator once.
     */
    RunOutcome runOnce(const ModelConfig &model,
                       const ParallelConfig &parallel, int n_micro,
                       OperatorToTaskTable &table) const;

    /** The template-less per-plan path (see file comment). */
    SimulationResult simulateFromScratch(const ModelConfig &model,
                                         const ParallelConfig &parallel)
        const;

    /**
     * The shared post-processing of the template-less and batched
     * paths: extrapolates fast mode's affine tail when `next`
     * is non-null, then fills utilization and the projection fields.
     * Never touches sim_wall_seconds.
     */
    SimulationResult assembleResult(const ModelConfig &model,
                                    const ParallelConfig &parallel,
                                    const RunOutcome &base,
                                    const RunOutcome *next, int n_micro,
                                    int cap) const;

    ClusterSpec cluster_;
    SimOptions options_;
    CommModel comm_;
    std::shared_ptr<GraphTemplateCache> templates_;
    std::shared_ptr<EngineCounters> counters_;
    ThreadPool *retime_pool_ = nullptr; //!< non-owning; may be null
};

/**
 * @return the key under which a (model, plan, cluster, options) point
 * may share one batched replay group (Simulator::simulateIterationBatch):
 * two points with equal keys simulate the same micro-batch counts over
 * the same task-graph topology with one shared profiler table, and
 * differ only in their re-timed durations.  Returns 0 when the point
 * is not batchable (perturbed, or the non-memoized ablation).  The
 * serve layer groups evaluateBatch() requests by this key.
 */
uint64_t batchGroupKey(const ModelConfig &model,
                       const ParallelConfig &parallel,
                       const ClusterSpec &cluster,
                       const SimOptions &options);

/**
 * @return the core of `parallel` within its batch group: the plan with
 * global_batch_size cleared.  The group key already fixes the
 * simulated micro-batch count and retiming never reads the batch
 * size, so two members with equal cores simulate identical runs and
 * differ only in the affine tail and the FLOP count that
 * assembleResult derives from their own batch size.
 * Simulator::simulateIterationBatch simulates each distinct core once;
 * the serve layer slices large groups by core.
 */
ParallelConfig batchCore(const ParallelConfig &parallel);

} // namespace vtrain

#endif // VTRAIN_SIM_SIMULATOR_H
