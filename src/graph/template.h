/**
 * @file
 * Build-once / retime-many graph templates.
 *
 * The paper's central observation is that training iterations are
 * statically determined and repetitive.  The same holds one level up:
 * across a design-space sweep, most simulation points share the exact
 * *structure* of their task graph — the tasks, the CSR dependency
 * arrays, the device/stream/tag assignment — and differ only in the
 * durations that kernels and collectives are assigned.  A
 * GraphTemplate captures that structure once (together with a
 * provenance record mapping every task to its descriptor kernel or
 * communication site) and a retimeDurations() pass fills in durations
 * for a new (plan, cluster) pair in O(tasks) — it fills a small
 * duration arena and gathers it through the per-task slots — skipping
 * graph construction and expansion entirely.
 *
 * Templates are keyed by structuralFingerprint(), a hash of exactly
 * the inputs the topology depends on: model shape, the structural
 * parallel-plan fields, the simulated micro-batch count and the
 * expansion mode.  Kernel durations, communication latencies, the
 * cluster, and the data-parallel degree (beyond d>1 and the ZeRO
 * sharding it implies) are deliberately *not* part of the key, so
 * sweeps that vary cluster/comm parameters, global batch size (under
 * fast mode's cap) or only the DP degree reuse the cached topology.
 *
 * Retiming is exact, not approximate: a re-timed graph is
 * bit-identical to the graph a from-scratch build would produce for
 * the same request (golden-tested across a sweep grid).  A retime
 * whose lookup table disagrees with the recorded kernel counts (a
 * fingerprint collision, or a profiler whose decomposition changed)
 * fails gracefully and the caller rebuilds from scratch.
 *
 * The captured topology is in execution order (graph/task_graph.h),
 * so it doubles as the replay schedule: warm simulations pair
 * retimeDurations() with the engine's replaySimulation()/replayBatch()
 * linear passes over topology() instead of re-running the ready
 * queue.
 */
#ifndef VTRAIN_GRAPH_TEMPLATE_H
#define VTRAIN_GRAPH_TEMPLATE_H

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "comm/comm_model.h"
#include "graph/task_graph.h"
#include "hw/cluster_spec.h"
#include "model/model_config.h"
#include "parallel/parallel_config.h"
#include "profiling/synthetic_profiler.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {

/**
 * @return the 64-bit structural fingerprint of the task-graph
 * topology for (model, parallel, n_micro micro-batches), expanded
 * with `collapse_operators` under `attention`.
 *
 * Includes every input the topology depends on and nothing that only
 * affects durations.  In particular the model *name*, the precision,
 * the cluster and the DP degree (beyond d>1, plus d itself only under
 * ZeRO, which shards the weight-update descriptor by d) are excluded.
 */
uint64_t structuralFingerprint(const ModelConfig &model,
                               const ParallelConfig &parallel, int n_micro,
                               bool collapse_operators,
                               AttentionImpl attention);

/** Captured task-graph structure; see file comment. */
class GraphTemplate
{
  public:
    /**
     * Expands `ops` via `table` and captures the result: returns the
     * template and writes the expansion's per-task durations (task
     * id order) into `*durations`, reusing its storage.  The
     * expansion must be memoized and unperturbed (perturbers are
     * per-instance and process-local; the simulator never routes
     * them through templates); throws otherwise.
     */
    static std::shared_ptr<const GraphTemplate>
    capture(const OpGraph &ops, OperatorToTaskTable &table,
            const ExpandOptions &options, std::vector<double> *durations);

    /**
     * Re-times the captured topology for (parallel, cluster): fills
     * `*out` with the per-task durations, in task id (execution)
     * order.  Kernel durations come from `table`, communication
     * latencies are re-derived from the recorded payloads via `comm`.
     * The replay engine consumes exactly this over topology()
     * (engine.h replaySimulation), and the batched sweep path collects
     * one such vector per point.  @return false (leaving `*out`
     * untouched) when `table`'s kernel decomposition disagrees with
     * the captured structure, in which case the caller must rebuild
     * from scratch.
     */
    bool retimeDurations(OperatorToTaskTable &table,
                         const ParallelConfig &parallel,
                         const ClusterSpec &cluster,
                         const CommModel &comm,
                         std::vector<double> *out) const;

    /** The captured topology, in execution order: the replay engine's
     *  schedule, shared by every replay of this template. */
    const TaskGraph::Topology &topology() const { return *topo_; }

    size_t numOperators() const { return num_operators_; }
    size_t numTasks() const { return topo_->meta.size(); }

    /** Approximate resident size, for the cache's byte budget. */
    size_t approxBytes() const { return bytes_; }

  private:
    GraphTemplate() = default;

    std::shared_ptr<const TaskGraph::Topology> topo_;
    TaskGraph::Provenance prov_;
    size_t num_operators_ = 0;
    bool collapse_ = false;
    size_t bytes_ = 0;
};

/**
 * Counters of one GraphTemplateCache.  Field-compatible with the
 * serve layer's CacheStats (one JSON serializer covers both), but a
 * distinct type: the graph layer cannot depend on serve/ headers.
 */
struct TemplateCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t updates = 0; //!< put() refreshes of an existing key
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;

    double
    hitRate() const
    {
        const uint64_t total = hits + misses;
        return total == 0
                   ? 0.0
                   : static_cast<double>(hits) / static_cast<double>(total);
    }
};

/**
 * Thread-safe LRU cache of graph templates, keyed by structural
 * fingerprint.  Bounded by entry count and (approximate) bytes; the
 * most recently inserted entry is never evicted, so a single template
 * larger than the whole budget still serves its own re-simulations.
 */
class GraphTemplateCache
{
  public:
    struct Options {
        size_t max_entries = 32;
        /** 86 MiB.  A template costs about 16 bytes per task, so
         *  this keeps ~5.5M tasks of topology (a dozen capped MT-NLG
         *  plans) resident. */
        size_t max_bytes = 86u << 20;
    };

    GraphTemplateCache() : GraphTemplateCache(Options{}) {}
    explicit GraphTemplateCache(Options options);

    GraphTemplateCache(const GraphTemplateCache &) = delete;
    GraphTemplateCache &operator=(const GraphTemplateCache &) = delete;

    /** @return the template for `fingerprint`, or nullptr (counted). */
    std::shared_ptr<const GraphTemplate> get(uint64_t fingerprint);

    /** Inserts (or refreshes) a template, evicting LRU entries. */
    void put(uint64_t fingerprint,
             std::shared_ptr<const GraphTemplate> tmpl);

    /** Drops every entry (counters are retained). */
    void clear();

    TemplateCacheStats stats() const;

  private:
    using Entry = std::pair<uint64_t, std::shared_ptr<const GraphTemplate>>;

    /** Evicts LRU entries until budgets hold. */
    void shrinkLocked() REQUIRES(mutex_);

    Options options_;
    mutable util::Mutex mutex_;
    /** front = most recently used */
    std::list<Entry> lru_ GUARDED_BY(mutex_);
    std::unordered_map<uint64_t, std::list<Entry>::iterator>
        index_ GUARDED_BY(mutex_);
    size_t bytes_ GUARDED_BY(mutex_) = 0;
    uint64_t hits_ GUARDED_BY(mutex_) = 0;
    uint64_t misses_ GUARDED_BY(mutex_) = 0;
    uint64_t insertions_ GUARDED_BY(mutex_) = 0;
    uint64_t updates_ GUARDED_BY(mutex_) = 0;
    uint64_t evictions_ GUARDED_BY(mutex_) = 0;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_TEMPLATE_H
