/**
 * @file
 * Task-granularity execution graph (paper Sec. III-D, Fig. 4 step 4).
 *
 * Expansion replaces every computation operator of the
 * operator-granularity graph with its CUDA kernel sequence from the
 * operator-to-task lookup table, while honouring all inter-operator
 * dependencies; communication operators become single tasks carrying
 * their modelled latency.
 *
 * Expanded graphs are numbered in execution order: task id i is the
 * i-th task the engine's FIFO ready queue (sim/engine.h, Algorithm 1)
 * pops.  The pop order is a pure function of the dependency structure
 * -- durations cannot reorder a FIFO -- so the topology is its own
 * replay schedule: every timed run visits tasks 0..n-1 in order, and
 * a replay (engine.h replaySimulation / replayBatch) streams the
 * per-task arrays linearly.
 *
 * Storage is split by volatility: task *durations* (the only values
 * that change when kernels are re-profiled or comm parameters move)
 * live in a per-instance array, while the structural remainder —
 * 4-byte per-task device/stream/tag metadata and the CSR child
 * arrays — lives in an immutable, shared Topology.  Re-timing a
 * cached graph template (graph/template.h) therefore allocates one
 * double per task and shares everything else.  Topologies carry no
 * in-degrees: the queue engine counts them from the child lists.  A
 * task's duration is read from a small per-graph arena through its
 * slot (see Provenance), one entry per descriptor kernel and per
 * distinct (kind, payload, latency) communication site.
 */
#ifndef VTRAIN_GRAPH_TASK_GRAPH_H
#define VTRAIN_GRAPH_TASK_GRAPH_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "graph/op_graph.h"
#include "profiling/op_task_table.h"

namespace vtrain {

/** Category of a task, for time accounting. */
enum class TaskTag : uint8_t {
    Compute = 0,
    TpAllReduce = 1,
    DpAllReduce = 2,
    PipeSendRecv = 3,
};

constexpr int kNumTaskTags = 4;

/**
 * Duration-perturbation hook.
 *
 * The vTrain predictor uses the identity perturbation; the testbed
 * surrogate (src/testbed/) injects the measurement effects the paper
 * identifies as its error sources (Sec. IV).  Perturbation happens at
 * expansion time so that every *instance* of a shared lookup-table
 * entry can be perturbed independently.
 */
class Perturber
{
  public:
    virtual ~Perturber() = default;

    /** Perturbs one compute-kernel duration. */
    virtual double perturbCompute(double duration,
                                  const OpNode &node) const = 0;

    /** Perturbs one communication-op latency. */
    virtual double perturbComm(double latency,
                               const OpNode &node) const = 0;
};

/** Options controlling task-graph expansion. */
struct ExpandOptions {
    /**
     * Collapse each operator's kernel chain into a single task (an
     * ablation; timing-equivalent because kernels within an operator
     * are sequential on one stream).
     */
    bool collapse_operators = false;

    /** Optional duration perturbation (testbed surrogate). */
    const Perturber *perturber = nullptr;
};

/** std::allocator whose resize() default-initializes new elements:
 *  expansion writes each element of its output arrays once, so
 *  zero-filling them first would be a second pass over fresh pages. */
template <class T>
struct UninitAllocator : std::allocator<T> {
    template <class U>
    struct rebind { using other = UninitAllocator<U>; };
    template <class U>
    void construct(U *p) { ::new (static_cast<void *>(p)) U; }
    template <class U, class... A>
    void construct(U *p, A &&...a)
    {
        ::new (static_cast<void *>(p)) U(std::forward<A>(a)...);
    }
};
template <class T>
using UninitVector = std::vector<T, UninitAllocator<T>>;

/** Flat CSR task DAG consumed by the simulation engine. */
class TaskGraph
{
  public:
    /** Structural (duration-independent) attributes of one task: 4
     *  bytes, with OpNode's int16_t device id. */
    struct TaskMeta {
        int16_t device;
        StreamKind stream;
        TaskTag tag;
    };

    /**
     * The immutable structural part of a task graph: per-task
     * metadata plus the CSR child arrays (a task's in-degree is the
     * number of times it appears in child_list).  Shared (never
     * copied) between a graph and the template it was captured into,
     * and between every re-timed instance of that template.  Expanded
     * topologies are in execution order (see file comment).
     */
    struct Topology {
        UninitVector<TaskMeta> meta;
        UninitVector<int32_t> child_offsets{0}; //!< size numTasks()+1
        UninitVector<int32_t> child_list;
        int num_devices = 1;
    };

    /**
     * Structural provenance recorded during expansion: where each
     * task's duration comes from.  A per-template duration arena holds
     * the interned descriptors' kernels first (descriptor d's kernels
     * contiguous, in descriptor order; one summed slot per descriptor
     * under collapse_operators), then one slot per distinct
     * communication site.  A site is a distinct (kind, payload,
     * latency) of the expanded graph's comm ops, so the arena holds
     * every op's own latency even in hand-built graphs.  slot[i] is
     * task i's index into that arena, so GraphTemplate re-times the
     * topology by filling the arena and gathering through slot.
     */
    struct Provenance {
        /** A communication site's (kind, per-GPU payload): what a
         *  retime re-derives its latency from. */
        struct CommSite {
            CommKind kind = CommKind::TpAllReduce;
            double bytes = 0.0;
        };

        UninitVector<int32_t> slot; //!< size numTasks()
        std::vector<OpDesc> descs; //!< interned descriptors, by id
        std::vector<int32_t> kernels_per_desc;
        std::vector<CommSite> comm_sites;
    };

    TaskGraph() : topo_(emptyTopology()) {}

    /** Incremental construction of arbitrary task DAGs (tests and
     *  custom frontends; the vTrain pipeline uses expand()).  Tasks
     *  keep the ids addTask() returns, so a built graph is in
     *  execution order only when added in that order: the queue
     *  engine runs any graph, the replay engine only ordered ones. */
    class Builder
    {
      public:
        /** Adds a task and returns its id.  Throws when `device` does
         *  not fit TaskMeta's int16_t. */
        int32_t addTask(double duration, int32_t device,
                        StreamKind stream = StreamKind::Compute,
                        TaskTag tag = TaskTag::Compute);

        /** Adds a dependency edge u -> v. */
        void addEdge(int32_t u, int32_t v);

        /** Finalizes into a CSR TaskGraph. */
        TaskGraph build(int num_devices) &&;

      private:
        std::vector<double> durations_;
        UninitVector<TaskMeta> metas_;
        std::vector<std::pair<int32_t, int32_t>> edges_;
    };

    /**
     * Expands a finalized operator graph via the lookup table,
     * numbering tasks in execution order (see file comment): the roots
     * are the operators without parents, in operator order; popping a
     * kernel that is not its operator's last queues its chain
     * successor, and popping an operator's last kernel queues each
     * child operator, in CSR order, whose last parent that was.
     * Operator i's kernels therefore need not be contiguous.  The
     * perturber still draws in (operator, kernel) order.  Throws on a
     * cyclic operator graph (the walk cannot order every task).
     *
     * When `provenance` is non-null it receives the structural record
     * the graph-template cache needs to re-time this topology later;
     * only a memoized, unperturbed expansion has one (throws
     * otherwise).  When `op_first_task` is non-null it receives, per
     * operator, the id of the operator's first task (under
     * collapse_operators, the operator's only task) — the way to find
     * an operator's tasks in an engine trace.  The result's durations
     * reuse the storage of `durations`.  Throws when a device id does
     * not fit TaskMeta's int16_t.
     */
    static TaskGraph expand(const OpGraph &ops, OperatorToTaskTable &table,
                            const ExpandOptions &options = {},
                            Provenance *provenance = nullptr,
                            std::vector<int32_t> *op_first_task = nullptr,
                            std::vector<double> durations = {});

    /** Assembles a graph from a duration array and a shared topology
     *  (the template re-timing fast path). */
    static TaskGraph fromParts(std::vector<double> durations,
                               std::shared_ptr<const Topology> topology);

    const std::vector<double> &durations() const { return durations_; }

    /** Moves the duration array out (the graph keeps its topology). */
    std::vector<double> releaseDurations() && { return std::move(durations_); }
    const UninitVector<TaskMeta> &metas() const { return topo_->meta; }

    size_t numTasks() const { return durations_.size(); }
    size_t numEdges() const { return topo_->child_list.size(); }
    int numDevices() const { return topo_->num_devices; }

    /** Children of task u, as a CSR slice. */
    const int32_t *childBegin(int32_t u) const
    {
        return topo_->child_list.data() + topo_->child_offsets[u];
    }
    const int32_t *childEnd(int32_t u) const
    {
        return topo_->child_list.data() + topo_->child_offsets[u + 1];
    }

    /** The shared structural part (see Topology). */
    const std::shared_ptr<const Topology> &topology() const
    {
        return topo_;
    }

  private:
    static const std::shared_ptr<const Topology> &emptyTopology();

    std::vector<double> durations_;
    std::shared_ptr<const Topology> topo_;
};

} // namespace vtrain

#endif // VTRAIN_GRAPH_TASK_GRAPH_H
