#include "graph/task_graph.h"

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
 * @return the index of `node`'s (kind, payload) in `sites`, appending
 * it if new.  Sites are few (every TP All-Reduce shares one payload),
 * so a linear scan from the most recent wins.
 */
int32_t
commSite(std::vector<TaskGraph::Provenance::CommSite> &sites,
         const OpNode &node)
{
    for (size_t site = sites.size(); site > 0; --site)
        if (sites[site - 1].kind == node.comm_kind &&
            sites[site - 1].bytes == node.comm_bytes)
            return static_cast<int32_t>(site - 1);
    sites.push_back({node.comm_kind, node.comm_bytes});
    return static_cast<int32_t>(sites.size() - 1);
}

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
    durations_.push_back(duration);
    metas_.push_back(TaskMeta{device, stream, tag});
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
             topo->child_list, &topo->in_degree);

    TaskGraph tg;
    tg.durations_ = std::move(durations_);
    tg.topo_ = std::move(topo);
    return tg;
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
                  std::vector<int32_t> *op_first_task)
{
    VTRAIN_CHECK(ops.finalized(),
                 "expand requires a finalized operator graph");

    const auto &nodes = ops.nodes();
    const size_t n_ops = nodes.size();
    const auto &descs = ops.descs();
    const bool collapse = options.collapse_operators;

    // Hoist the per-operator table lookups out of the expansion
    // loops: a memoized table returns one stable sequence per
    // interned descriptor, so each distinct operator is hashed once
    // instead of once per node per pass.  The non-memoized ablation
    // keeps the per-node lookups (re-profiling every occurrence is
    // exactly what it measures).
    const bool hoist = table.memoized();
    std::vector<const KernelSequence *> seq_of_desc;
    if (hoist) {
        seq_of_desc.resize(descs.size());
        for (size_t d = 0; d < descs.size(); ++d)
            seq_of_desc[d] = &table.lookup(descs[d]);
    }
    const auto seq_for = [&](const OpNode &node) -> const KernelSequence & {
        return hoist ? *seq_of_desc[node.desc_id]
                     : table.lookup(ops.descOf(node));
    };

    // Per-desc arena offsets: descriptor d's kernels (or, collapsed,
    // its one summed duration) start at desc_off[d].  The provenance
    // slots index this layout, and the unperturbed memoized expansion
    // reads its compute durations from it.
    std::vector<int32_t> desc_kernels(descs.size(), 0);
    std::vector<int32_t> desc_off(descs.size() + 1, 0);
    if (hoist || provenance) {
        for (size_t d = 0; d < descs.size(); ++d) {
            desc_kernels[d] = static_cast<int32_t>(
                (hoist ? *seq_of_desc[d] : table.lookup(descs[d]))
                    .kernels.size());
            desc_off[d + 1] = desc_off[d] + (collapse ? 1 : desc_kernels[d]);
        }
    }

    // Pass 1, in operator order: per-op task counts, structural
    // metadata and duration sources.  Task (op i, kernel k) takes its
    // duration from values[source + k].  Perturbed or non-memoized
    // expansions stage every instance here in (op, kernel) order --
    // the order the perturber's draws and the ablation's lookups are
    // defined in; the memoized unperturbed path shares one packed run
    // per descriptor and stages only communication latencies.
    struct OpInfo {
        TaskMeta meta;
        int32_t count = 0;     //!< tasks (kernels) of the op
        int32_t source = 0;    //!< values index of kernel 0
        int32_t slot = 0;      //!< provenance slot of kernel 0
        int32_t in_degree = 0; //!< parent ops (with multiplicity)
        int32_t ref = 0;       //!< see the walk below
        int32_t first = -1;    //!< id of the op's first task
        int32_t pending = -1;  //!< see the walk below
    };
    std::vector<OpInfo> info(n_ops);
    const bool staged = options.perturber != nullptr || !hoist;
    std::vector<double> values;
    if (!staged) {
        // Descriptor runs, then one latency per comm op (at most).
        values.reserve(static_cast<size_t>(desc_off.back()) + n_ops);
        values.resize(static_cast<size_t>(desc_off.back()));
        for (size_t d = 0; d < descs.size(); ++d) {
            const auto &kernels = seq_of_desc[d]->kernels;
            double *const out = values.data() + desc_off[d];
            if (collapse) {
                double total = 0.0;
                for (const auto &k : kernels)
                    total += k.duration;
                out[0] = total;
            } else {
                for (size_t k = 0; k < kernels.size(); ++k)
                    out[k] = kernels[k].duration;
            }
        }
    }
    // Provenance slots: descriptor runs, then one per distinct
    // communication site.
    std::vector<Provenance::CommSite> *const sites =
        provenance ? &provenance->comm_sites : nullptr;
    if (provenance) {
        provenance->descs = descs;
        provenance->kernels_per_desc = desc_kernels;
        sites->clear();
    }
    size_t n_tasks = 0;
    for (size_t i = 0; i < n_ops; ++i) {
        const OpNode &node = nodes[i];
        OpInfo &op = info[i];
        op.meta = TaskMeta{node.device, node.stream, tagOf(node)};
        if (node.type == OpNodeType::Comm) {
            double latency = node.comm_latency;
            if (options.perturber)
                latency = options.perturber->perturbComm(latency, node);
            op.count = 1;
            op.source = static_cast<int32_t>(values.size());
            values.push_back(latency);
            if (sites)
                op.slot = desc_off.back() + commSite(*sites, node);
        } else if (!staged) {
            op.count = desc_off[node.desc_id + 1] - desc_off[node.desc_id];
            op.source = desc_off[node.desc_id];
        } else {
            // The ablation's count lookup precedes its duration
            // lookup, once each per node (its profiler-call total).
            op.count = collapse ? 1
                                : static_cast<int32_t>(
                                      seq_for(node).kernels.size());
            const KernelSequence &seq = seq_for(node);
            op.source = static_cast<int32_t>(values.size());
            double total = 0.0;
            for (const auto &k : seq.kernels) {
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
        if (node.type == OpNodeType::Compute)
            op.slot = desc_off[node.desc_id];
        n_tasks += static_cast<size_t>(op.count);
        for (const OpGraph::NodeId *c = ops.childBegin(
                 static_cast<OpGraph::NodeId>(i));
             c != ops.childEnd(static_cast<OpGraph::NodeId>(i)); ++c)
            ++info[*c].in_degree;
    }

    auto topo = std::make_shared<Topology>();
    topo->num_devices = ops.numDevices();
    topo->meta.resize(n_tasks);
    topo->in_degree.resize(n_tasks);
    topo->child_offsets.resize(n_tasks + 1);
    topo->child_list.resize(n_tasks - n_ops + ops.numEdges());
    std::vector<double> durations(n_tasks);
    if (provenance)
        provenance->slot.resize(n_tasks);
    TaskMeta *const meta = topo->meta.data();
    int32_t *const in_degree = topo->in_degree.data();
    int32_t *const child_offsets = topo->child_offsets.data();
    int32_t *const child_list = topo->child_list.data();
    int32_t *const slot = provenance ? provenance->slot.data() : nullptr;

    // Pass 2: the queue engine's FIFO walk, durations ignored.  Tasks
    // are numbered as they are queued, so task id == pop position.
    // The queue itself lives in in_degree[]: a queued slot holds its
    // op until popped, when the task's own in-degree replaces it.  An
    // op's `ref` counts its unfinished parents until it is queued and
    // its popped kernels from then on (kernels pop in chain order).
    // An edge to a child op not yet queued is threaded onto that op's
    // `pending` list (through child_list, -1 ends it) and patched to
    // the op's first task when the op is queued.
    for (OpInfo &op : info)
        op.ref = op.in_degree;
    int32_t tail = 0;
    for (size_t i = 0; i < n_ops; ++i) {
        if (info[i].in_degree == 0) {
            info[i].first = tail;
            in_degree[tail++] = static_cast<int32_t>(i);
        }
    }
    int32_t edge = 0;
    child_offsets[0] = 0;
    for (int32_t u = 0; u < tail; ++u) {
        const int32_t op_id = in_degree[u];
        OpInfo &op = info[op_id];
        const int32_t k = op.ref++;
        in_degree[u] = k == 0 ? op.in_degree : 1;
        meta[u] = op.meta;
        durations[u] = values[op.source + k];
        if (slot)
            slot[u] = op.slot + k;
        if (k + 1 < op.count) {
            child_list[edge++] = tail;
            in_degree[tail++] = op_id;
        } else {
            for (const OpGraph::NodeId *c = ops.childBegin(op_id),
                                       *const c_end = ops.childEnd(op_id);
                 c != c_end; ++c) {
                OpInfo &child = info[*c];
                if (--child.ref == 0) {
                    child.first = tail;
                    for (int32_t e = child.pending; e >= 0;) {
                        const int32_t next = child_list[e];
                        child_list[e] = tail;
                        e = next;
                    }
                    child_list[edge++] = tail;
                    in_degree[tail++] = *c;
                } else {
                    child_list[edge] = child.pending;
                    child.pending = edge++;
                }
            }
        }
        child_offsets[u + 1] = edge;
    }
    VTRAIN_CHECK(static_cast<size_t>(tail) == n_tasks,
                 "expansion deadlock: ordered ", tail, " of ", n_tasks,
                 " tasks (cyclic dependency?)");

    if (op_first_task) {
        op_first_task->resize(n_ops);
        for (size_t i = 0; i < n_ops; ++i)
            (*op_first_task)[i] = info[i].first;
    }

    TaskGraph tg;
    tg.durations_ = std::move(durations);
    tg.topo_ = std::move(topo);
    return tg;
}

} // namespace vtrain
