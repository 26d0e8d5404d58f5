#include "graph/task_graph.h"

#include <limits>

#include "graph/csr.h"
#include "util/logging.h"

namespace vtrain {

namespace {

TaskTag
tagOf(const OpNode &node)
{
    if (node.type == OpNodeType::Compute)
        return TaskTag::Compute;
    switch (node.comm_kind) {
      case CommKind::TpAllReduce:
        return TaskTag::TpAllReduce;
      case CommKind::DpAllReduce:
      case CommKind::DpReduceScatter:
      case CommKind::DpAllGather:
        return TaskTag::DpAllReduce;
      case CommKind::PipeSendRecv:
        return TaskTag::PipeSendRecv;
    }
    VTRAIN_PANIC("unknown comm kind");
}

/**
 * @return the arena slot of `node`'s communication site, a distinct
 * (kind, payload, latency): `sites` and the arena's site run (from
 * `values[site_base]` on) grow together.  Sites are few (every TP
 * All-Reduce shares one), so a linear scan from the most recent wins.
 */
int32_t
commSite(std::vector<TaskGraph::Provenance::CommSite> &sites,
         std::vector<double> &values, size_t site_base, const OpNode &node)
{
    for (size_t site = sites.size(); site > 0; --site)
        if (sites[site - 1].kind == node.comm_kind &&
            sites[site - 1].bytes == node.comm_bytes &&
            values[site_base + site - 1] == node.comm_latency)
            return static_cast<int32_t>(site_base + site - 1);
    sites.push_back({node.comm_kind, node.comm_bytes});
    values.push_back(node.comm_latency);
    return static_cast<int32_t>(values.size() - 1);
}

TaskGraph::TaskMeta
taskMeta(int32_t device, StreamKind stream, TaskTag tag)
{
    VTRAIN_CHECK(device >= std::numeric_limits<int16_t>::min() &&
                     device <= std::numeric_limits<int16_t>::max(),
                 "device ", device, " does not fit a task's int16_t");
    return {static_cast<int16_t>(device), stream, tag};
}

/** One operator's walk state (see the walk in expand). */
struct WalkOp {
    int32_t ref;     //!< unfinished parents, then kernels left to pop
    int32_t pending; //!< child_list edges awaiting the op's first task
    int32_t base;    //!< arena slot of the op's next kernel
    TaskGraph::TaskMeta meta;
};
static_assert(sizeof(WalkOp) == 16, "one walk record is 16 bytes");

/** Prefetches array[index + 256] for writing.  The address is formed
 *  in integers: past the array's end it is harmless, as a prefetch
 *  never faults. */
template <class T>
void
prefetchAhead(const T *array, int32_t index)
{
    const uintptr_t at = reinterpret_cast<uintptr_t>(array) +
                         (static_cast<uintptr_t>(index) + 256) * sizeof(T);
    __builtin_prefetch(reinterpret_cast<const void *>(at), 1);
}

/** Expansion scratch, reused by every expansion on a thread. */
struct ExpandScratch {
    UninitVector<WalkOp> walk;
    UninitVector<int32_t> count; //!< tasks (kernels) of each op
    std::vector<double> values;  //!< the duration arena
};

} // namespace

const std::shared_ptr<const TaskGraph::Topology> &
TaskGraph::emptyTopology()
{
    static const std::shared_ptr<const Topology> empty =
        std::make_shared<const Topology>();
    return empty;
}

int32_t
TaskGraph::Builder::addTask(double duration, int32_t device,
                            StreamKind stream, TaskTag tag)
{
    metas_.push_back(taskMeta(device, stream, tag));
    durations_.push_back(duration);
    return static_cast<int32_t>(durations_.size() - 1);
}

void
TaskGraph::Builder::addEdge(int32_t u, int32_t v)
{
    VTRAIN_CHECK(u >= 0 && v >= 0 &&
                     u < static_cast<int32_t>(durations_.size()) &&
                     v < static_cast<int32_t>(durations_.size()),
                 "edge endpoints out of range");
    edges_.emplace_back(u, v);
}

TaskGraph
TaskGraph::Builder::build(int num_devices) &&
{
    auto topo = std::make_shared<Topology>();
    topo->num_devices = num_devices;
    topo->meta = std::move(metas_);
    buildCsr(topo->meta.size(), edges_, topo->child_offsets,
             topo->child_list);
    return fromParts(std::move(durations_), std::move(topo));
}

TaskGraph
TaskGraph::fromParts(std::vector<double> durations,
                     std::shared_ptr<const Topology> topology)
{
    VTRAIN_CHECK(topology && topology->meta.size() == durations.size(),
                 "durations do not match the topology");
    TaskGraph tg;
    tg.durations_ = std::move(durations);
    tg.topo_ = std::move(topology);
    return tg;
}

TaskGraph
TaskGraph::expand(const OpGraph &ops, OperatorToTaskTable &table,
                  const ExpandOptions &options, Provenance *provenance,
                  std::vector<int32_t> *op_first_task,
                  std::vector<double> durations)
{
    VTRAIN_CHECK(ops.finalized(),
                 "expand requires a finalized operator graph");

    const auto &nodes = ops.nodes();
    const size_t n_ops = nodes.size();
    const auto &descs = ops.descs();
    const bool collapse = options.collapse_operators;

    // The duration arena: task (op i, kernel k) takes values[base_i +
    // k], and that index is its slot.  A memoized, unperturbed
    // expansion looks each interned descriptor up once and lays the
    // arena out as Provenance does (task_graph.h): descriptor d's
    // kernels (or, collapsed, its one summed duration) from
    // desc_off[d], then one latency per communication site.  Perturbed
    // or non-memoized ("staged") expansions look every node up -- the
    // ablation must: re-profiling each occurrence is what it measures
    // -- and stage every instance in (op, kernel) order, the order the
    // perturber's draws and the ablation's lookups are defined in.
    const bool staged = options.perturber != nullptr || !table.memoized();
    VTRAIN_CHECK(!provenance || !staged,
                 "only a memoized, unperturbed expansion has provenance "
                 "(graph templates cannot capture perturbed expansions)");
    thread_local ExpandScratch scratch;
    std::vector<double> &values = scratch.values;
    Provenance local;
    Provenance &prov = provenance ? *provenance : local;
    prov = Provenance{};
    values.clear();
    std::vector<int32_t> desc_off(descs.size() + 1, 0);
    for (size_t d = 0; !staged && d < descs.size(); ++d) {
        const auto &kernels = table.lookup(descs[d]).kernels;
        prov.kernels_per_desc.push_back(
            static_cast<int32_t>(kernels.size()));
        double total = 0.0;
        for (const auto &k : kernels) {
            total += k.duration;
            if (!collapse)
                values.push_back(k.duration);
        }
        if (collapse)
            values.push_back(total);
        desc_off[d + 1] = static_cast<int32_t>(values.size());
    }

    // Pass 1, in operator order: each op's walk record, its task
    // count (cold: read once, when the op is queued) and its parent
    // count, which seeds `ref`.
    scratch.walk.assign(n_ops, WalkOp{});
    scratch.count.resize(n_ops);
    WalkOp *const walk = scratch.walk.data();
    int32_t *const count = scratch.count.data();
    size_t n_tasks = 0;
    for (size_t i = 0; i < n_ops; ++i) {
        const OpNode &node = nodes[i];
        WalkOp &op = walk[i];
        op.meta = taskMeta(node.device, node.stream, tagOf(node));
        op.pending = -1;
        op.base = static_cast<int32_t>(values.size());
        if (node.type == OpNodeType::Comm) {
            count[i] = 1;
            if (!staged)
                op.base = commSite(prov.comm_sites, values, desc_off.back(),
                                   node);
            else
                values.push_back(options.perturber
                                     ? options.perturber->perturbComm(
                                           node.comm_latency, node)
                                     : node.comm_latency);
        } else if (!staged) {
            count[i] = desc_off[node.desc_id + 1] - desc_off[node.desc_id];
            op.base = desc_off[node.desc_id];
        } else {
            // The ablation's count lookup precedes its duration
            // lookup, once each per node (its profiler-call total).
            count[i] = collapse ? 1
                                : static_cast<int32_t>(
                                      table.lookup(ops.descOf(node))
                                          .kernels.size());
            double total = 0.0;
            for (const auto &k : table.lookup(ops.descOf(node)).kernels) {
                double d = k.duration;
                if (options.perturber)
                    d = options.perturber->perturbCompute(d, node);
                if (collapse)
                    total += d;
                else
                    values.push_back(d);
            }
            if (collapse)
                values.push_back(total);
        }
        VTRAIN_CHECK(count[i] > 0, "operator ", i, " expands to no tasks");
        n_tasks += static_cast<size_t>(count[i]);
        for (const OpGraph::NodeId *c = ops.childBegin(
                 static_cast<OpGraph::NodeId>(i));
             c != ops.childEnd(static_cast<OpGraph::NodeId>(i)); ++c)
            ++walk[*c].ref;
    }

    auto topo = std::make_shared<Topology>();
    topo->num_devices = ops.numDevices();
    topo->meta.resize(n_tasks);
    topo->child_offsets.resize(n_tasks + 1);
    topo->child_list.resize(n_tasks - n_ops + ops.numEdges());
    durations.resize(n_tasks);
    if (provenance) {
        provenance->descs = descs;
        provenance->slot.resize(n_tasks);
    }
    if (op_first_task)
        op_first_task->resize(n_ops);
    TaskMeta *const meta = topo->meta.data();
    int32_t *const child_offsets = topo->child_offsets.data();
    int32_t *const child_list = topo->child_list.data();
    double *const duration = durations.data();
    int32_t *const slot = provenance ? provenance->slot.data() : nullptr;
    int32_t *const first = op_first_task ? op_first_task->data() : nullptr;
    const double *const arena = values.data();

    // Pass 2: the queue engine's FIFO walk, durations ignored.  Tasks
    // are numbered as they are queued, so task id == pop position.
    // The queue lives in child_offsets: queued task t's op waits in
    // queue[t] == child_offsets[t + 1] until its pop writes t's CSR
    // end there.  An op's `ref` counts its unfinished parents until
    // it is queued and its kernels left to pop from then on (kernels
    // pop in chain order, each from the op's next arena slot).  An
    // edge to a child op not yet queued is threaded onto that op's
    // `pending` list (through child_list, -1 ends it) and patched to
    // the op's first task when it is queued.  Every output stream is
    // written front to back into fresh pages; prefetching them ahead
    // cut a 391k-task capture by about a quarter (4-vCPU 2.1 GHz Xeon).
    int32_t *const queue = child_offsets + 1;
    int32_t tail = 0;
    for (size_t i = 0; i < n_ops; ++i) {
        if (walk[i].ref == 0) {
            walk[i].ref = count[i];
            if (first)
                first[i] = tail;
            queue[tail++] = static_cast<int32_t>(i);
        }
    }
    int32_t edge = 0;
    child_offsets[0] = 0;
    for (int32_t u = 0; u < tail; ++u) {
        const int32_t op_id = queue[u];
        WalkOp &op = walk[op_id];
        if (u % 16 == 0) {
            prefetchAhead(meta, u);
            prefetchAhead(child_offsets, tail);
            prefetchAhead(child_list, edge);
            prefetchAhead(duration, u);
            prefetchAhead(duration, u + 8);
            if (slot)
                prefetchAhead(slot, u);
        }
        meta[u] = op.meta;
        duration[u] = arena[op.base];
        if (slot)
            slot[u] = op.base;
        ++op.base;
        if (--op.ref != 0) {
            child_list[edge++] = tail;
            queue[tail++] = op_id;
        } else {
            for (const OpGraph::NodeId *c = ops.childBegin(op_id),
                                       *const c_end = ops.childEnd(op_id);
                 c != c_end; ++c) {
                WalkOp &child = walk[*c];
                if (--child.ref == 0) {
                    child.ref = count[*c];
                    if (first)
                        first[*c] = tail;
                    for (int32_t e = child.pending; e >= 0;) {
                        const int32_t next = child_list[e];
                        child_list[e] = tail;
                        e = next;
                    }
                    child_list[edge++] = tail;
                    queue[tail++] = *c;
                } else {
                    child_list[edge] = child.pending;
                    child.pending = edge++;
                }
            }
        }
        queue[u] = edge;
    }
    VTRAIN_CHECK(static_cast<size_t>(tail) == n_tasks,
                 "expansion deadlock: ordered ", tail, " of ", n_tasks,
                 " tasks (cyclic dependency?)");
    return fromParts(std::move(durations), std::move(topo));
}

} // namespace vtrain
