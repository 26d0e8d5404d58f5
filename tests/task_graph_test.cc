/**
 * @file
 * Unit tests for task-graph expansion: kernel-count bookkeeping,
 * collapse-mode equivalence, perturbation hooks, and the queue
 * engine's results against an independent op-order reference
 * expansion.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "comm/comm_model.h"
#include "graph/builder.h"
#include "graph/task_graph.h"
#include "model/zoo.h"
#include "profiling/synthetic_profiler.h"
#include "sim/engine.h"
#include "testbed/testbed.h"
#include "queue_order.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(1024, 4, 16, 512, 8192);
}

ParallelConfig
tinyPlan()
{
    ParallelConfig plan;
    plan.tensor = 2;
    plan.data = 2;
    plan.pipeline = 2;
    plan.micro_batch_size = 1;
    plan.global_batch_size = 8;
    return plan;
}

struct Fixture {
    ModelConfig model = tinyModel();
    ParallelConfig plan = tinyPlan();
    ClusterSpec cluster = makeCluster(8);
    CommModel comm{cluster};
    SyntheticProfiler profiler{cluster.node.gpu};

    OpGraph
    ops()
    {
        return GraphBuilder(model, plan, cluster, comm).build();
    }
};

TEST(TaskGraphExpand, TaskCountMatchesKernelSum)
{
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    const TaskGraph tg = TaskGraph::expand(ops, table);

    size_t expected = 0;
    OperatorToTaskTable check(f.profiler);
    for (const auto &node : ops.nodes()) {
        expected += node.type == OpNodeType::Comm
                        ? 1
                        : check.lookup(ops.descOf(node)).kernels.size();
    }
    EXPECT_EQ(tg.numTasks(), expected);
    EXPECT_GT(tg.numTasks(), ops.numNodes());
}

TEST(TaskGraphExpand, CollapseModeOneTaskPerOp)
{
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    ExpandOptions options;
    options.collapse_operators = true;
    const TaskGraph tg = TaskGraph::expand(ops, table, options);
    EXPECT_EQ(tg.numTasks(), ops.numNodes());
}

TEST(TaskGraphExpand, CollapseModeTimingEquivalent)
{
    // Kernels within an operator are sequential on one stream, so
    // collapsing them must not change the simulated makespan.
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    const TaskGraph full = TaskGraph::expand(ops, table);
    ExpandOptions options;
    options.collapse_operators = true;
    const TaskGraph collapsed = TaskGraph::expand(ops, table, options);
    const double makespan_full = runSimulation(full).makespan;
    const double makespan_collapsed =
        runSimulation(collapsed).makespan;
    EXPECT_NEAR(makespan_full, makespan_collapsed,
                1e-9 * makespan_full);
}

TEST(TaskGraphExpand, EdgeCountConsistent)
{
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    const TaskGraph tg = TaskGraph::expand(ops, table);
    // intra-op chains + one task-edge per op-edge.
    EXPECT_EQ(tg.numEdges(),
              tg.numTasks() - ops.numNodes() + ops.numEdges());
    // in-degrees must sum to the edge count.
    size_t in_sum = 0;
    for (int32_t d : queue_order::inDegrees(tg))
        in_sum += static_cast<size_t>(d);
    EXPECT_EQ(in_sum, tg.numEdges());
}

TEST(TaskGraphExpand, DurationsPositive)
{
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    const TaskGraph tg = TaskGraph::expand(ops, table);
    for (const double duration : tg.durations())
        EXPECT_GT(duration, 0.0);
}

/** Scales every duration by a constant. */
class ScalingPerturber : public Perturber
{
  public:
    explicit ScalingPerturber(double factor) : factor_(factor) {}

    double
    perturbCompute(double duration, const OpNode &) const override
    {
        return duration * factor_;
    }

    double
    perturbComm(double latency, const OpNode &) const override
    {
        return latency * factor_;
    }

  private:
    double factor_;
};

TEST(TaskGraphExpand, UniformPerturbationScalesMakespan)
{
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    const TaskGraph base = TaskGraph::expand(ops, table);
    ScalingPerturber doubler(2.0);
    ExpandOptions options;
    options.perturber = &doubler;
    const TaskGraph scaled = TaskGraph::expand(ops, table, options);
    EXPECT_NEAR(runSimulation(scaled).makespan,
                2.0 * runSimulation(base).makespan, 1e-9);
}

TEST(TaskGraphExpand, CommOnlyPerturbationOnlyTouchesComm)
{
    /** Inflates only communication. */
    class CommPerturber : public Perturber
    {
      public:
        double
        perturbCompute(double d, const OpNode &) const override
        {
            return d;
        }
        double
        perturbComm(double l, const OpNode &) const override
        {
            return 3.0 * l;
        }
    };
    Fixture f;
    const OpGraph ops = f.ops();
    OperatorToTaskTable table(f.profiler);
    CommPerturber perturber;
    ExpandOptions options;
    options.perturber = &perturber;
    const TaskGraph base = TaskGraph::expand(ops, table);
    const TaskGraph inflated = TaskGraph::expand(ops, table, options);
    const auto r_base = runSimulation(base);
    const auto r_infl = runSimulation(inflated);
    EXPECT_GT(r_infl.makespan, r_base.makespan);
    // Compute totals must be identical.
    EXPECT_NEAR(
        r_infl.time_by_tag[static_cast<size_t>(TaskTag::Compute)],
        r_base.time_by_tag[static_cast<size_t>(TaskTag::Compute)],
        1e-12);
}

/** The expansion's tag policy, restated for the reference below. */
TaskTag
referenceTag(const OpNode &node)
{
    if (node.type == OpNodeType::Compute)
        return TaskTag::Compute;
    switch (node.comm_kind) {
      case CommKind::TpAllReduce:
        return TaskTag::TpAllReduce;
      case CommKind::PipeSendRecv:
        return TaskTag::PipeSendRecv;
      default:
        return TaskTag::DpAllReduce;
    }
}

/**
 * An independent, op-order expansion built with TaskGraph::Builder:
 * operator i's kernels are contiguous, chained in kernel order, and
 * an operator edge (a -> b) joins a's last kernel to b's first.  It
 * shares no code with TaskGraph::expand, so it stays a golden
 * reference for the engine's results whatever numbering expand emits.
 */
TaskGraph
opOrderReference(const OpGraph &ops, OperatorToTaskTable &table,
                 bool collapse)
{
    const auto &nodes = ops.nodes();
    TaskGraph::Builder builder;
    std::vector<int32_t> first(nodes.size()), last(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        const OpNode &node = nodes[i];
        const TaskTag tag = referenceTag(node);
        std::vector<double> durations;
        if (node.type == OpNodeType::Comm) {
            durations.push_back(node.comm_latency);
        } else {
            const KernelSequence &seq = table.lookup(ops.descOf(node));
            double total = 0.0;
            for (const Kernel &k : seq.kernels) {
                total += k.duration;
                if (!collapse)
                    durations.push_back(k.duration);
            }
            if (collapse)
                durations.push_back(total);
        }
        for (size_t k = 0; k < durations.size(); ++k) {
            const int32_t id = builder.addTask(durations[k], node.device,
                                               node.stream, tag);
            if (k == 0)
                first[i] = id;
            else
                builder.addEdge(id - 1, id);
            last[i] = id;
        }
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
        const auto u = static_cast<OpGraph::NodeId>(i);
        for (const OpGraph::NodeId *c = ops.childBegin(u);
             c != ops.childEnd(u); ++c)
            builder.addEdge(last[i], first[*c]);
    }
    return std::move(builder).build(ops.numDevices());
}

struct ReferenceCase {
    const char *name;
    int t, d, p;
    PipelineSchedule schedule = PipelineSchedule::OneFOneB;
    int zero_stage = 0;
    bool bucketing = true;
    bool recompute = true;
    AttentionImpl attention = AttentionImpl::Megatron;
};

TEST(TaskGraphExpand, ExecutionOrderMatchesOpOrderReference)
{
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const CommModel comm(cluster);
    const ReferenceCase cases[] = {
        {"1f1b", 2, 2, 2},
        {"gpipe", 2, 2, 2, PipelineSchedule::GPipe},
        {"deep-gpipe", 1, 2, 4, PipelineSchedule::GPipe},
        {"zero", 1, 4, 2, PipelineSchedule::OneFOneB, /*zero=*/1},
        {"no-bucketing", 2, 2, 2, PipelineSchedule::OneFOneB, 0, false},
        {"no-recompute", 2, 2, 2, PipelineSchedule::OneFOneB, 0, true,
         false},
        {"flash", 2, 1, 2, PipelineSchedule::OneFOneB, 0, true, true,
         AttentionImpl::FlashAttention},
    };
    for (const ReferenceCase &c : cases) {
        ParallelConfig plan;
        plan.tensor = c.t;
        plan.data = c.d;
        plan.pipeline = c.p;
        plan.micro_batch_size = 1;
        plan.global_batch_size = 64 * c.d;
        plan.schedule = c.schedule;
        plan.zero_stage = c.zero_stage;
        plan.gradient_bucketing = c.bucketing;
        plan.activation_recompute = c.recompute;
        SyntheticProfiler profiler(cluster.node.gpu, plan.precision,
                                   c.attention);
        OperatorToTaskTable table(profiler);
        // Fast mode's two capped micro-batch counts.
        const int cap = std::max(2 * c.p + 2, 4);
        for (const int n_micro : {cap, cap + 1}) {
            BuildOptions build;
            build.n_micro_override = n_micro;
            const OpGraph ops =
                GraphBuilder(model, plan, cluster, comm).build(build);
            for (const bool collapse : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << c.name << " n_micro=" << n_micro
                             << " collapse=" << collapse);
                ExpandOptions options;
                options.collapse_operators = collapse;
                const TaskGraph tasks =
                    TaskGraph::expand(ops, table, options);
                const TaskGraph reference =
                    opOrderReference(ops, table, collapse);
                ASSERT_EQ(tasks.numTasks(), reference.numTasks());
                ASSERT_EQ(tasks.numEdges(), reference.numEdges());
                // Expansion numbers tasks in execution order: the
                // queue engine pops them 0..n-1.
                const std::vector<int32_t> order =
                    queue_order::popOrder(tasks);
                ASSERT_EQ(order.size(), tasks.numTasks());
                for (size_t i = 0; i < order.size(); ++i)
                    ASSERT_EQ(order[i], static_cast<int32_t>(i));
                const EngineResult want = runSimulation(reference);
                const EngineResult got = runSimulation(tasks);
                EXPECT_EQ(got.makespan, want.makespan);
                EXPECT_EQ(got.time_by_tag, want.time_by_tag);
                EXPECT_EQ(got.busy_compute, want.busy_compute);
                EXPECT_EQ(got.busy_comm, want.busy_comm);
            }
        }
    }
}

TEST(TaskGraphExpand, CommSitesKeepNodeLatencies)
{
    // Two comm ops of one (kind, payload) but different latencies, as a
    // hand-built graph may carry: each task keeps its own op's latency,
    // and a third op repeating the first latency shares its site.
    OpGraph ops;
    const double bytes = 1 << 20;
    const double latencies[] = {1.5e-3, 2.25e-3, 1.5e-3};
    OpGraph::NodeId prev = -1;
    for (const double latency : latencies) {
        const OpGraph::NodeId id = ops.addComm(
            0, 0, CommKind::TpAllReduce, latency, 8, CommScope::IntraNode,
            1, StreamKind::Compute, bytes);
        if (prev >= 0)
            ops.addEdge(prev, id);
        prev = id;
    }
    ops.finalize();
    const ClusterSpec cluster = makeCluster(8);
    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    TaskGraph::Provenance provenance;
    std::vector<int32_t> first;
    const TaskGraph tasks =
        TaskGraph::expand(ops, table, {}, &provenance, &first);
    ASSERT_EQ(tasks.numTasks(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(tasks.durations()[first[i]], latencies[i]) << "op " << i;
    EXPECT_EQ(provenance.comm_sites.size(), 2u);
    EXPECT_EQ(provenance.slot[first[0]], provenance.slot[first[2]]);
    EXPECT_NE(provenance.slot[first[0]], provenance.slot[first[1]]);
}

/** One expansion's outputs, copied out for bitwise comparison. */
struct Expansion {
    TaskGraph tasks;
    TaskGraph::Provenance provenance;
    std::vector<int32_t> first;
};

void
expectSameExpansion(const Expansion &got, const Expansion &want)
{
    const TaskGraph &a = got.tasks;
    const TaskGraph &b = want.tasks;
    ASSERT_EQ(a.numTasks(), b.numTasks());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    const size_t n = a.numTasks();
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.metas()[i].device, b.metas()[i].device) << i;
        ASSERT_EQ(a.metas()[i].stream, b.metas()[i].stream) << i;
        ASSERT_EQ(a.metas()[i].tag, b.metas()[i].tag) << i;
    }
    EXPECT_EQ(0, std::memcmp(a.durations().data(), b.durations().data(),
                             n * sizeof(double)));
    const TaskGraph::Topology &ta = *a.topology();
    const TaskGraph::Topology &tb = *b.topology();
    EXPECT_TRUE(std::equal(ta.child_offsets.begin(), ta.child_offsets.end(),
                           tb.child_offsets.begin(), tb.child_offsets.end()));
    EXPECT_TRUE(std::equal(ta.child_list.begin(), ta.child_list.end(),
                           tb.child_list.begin(), tb.child_list.end()));
    EXPECT_TRUE(std::equal(got.provenance.slot.begin(),
                           got.provenance.slot.end(),
                           want.provenance.slot.begin(),
                           want.provenance.slot.end()));
    EXPECT_EQ(got.first, want.first);
}

TEST(TaskGraphExpand, ScratchReuseIsInvisible)
{
    // Expansion keeps per-thread scratch and leaves its output arrays
    // unzeroed until written.  A large, a small, a perturbed testbed
    // and the large graph again, expanded on one thread (the last
    // into the first result's duration storage), must each equal the
    // same expansion on a fresh thread, bit for bit.
    const ModelConfig model = tinyModel();
    const ClusterSpec cluster = makeCluster(64);
    const CommModel comm(cluster);
    ParallelConfig large_plan;
    large_plan.tensor = 2;
    large_plan.data = 2;
    large_plan.pipeline = 4;
    large_plan.micro_batch_size = 1;
    large_plan.global_batch_size = 64;
    BuildOptions large_build;
    large_build.n_micro_override = 10;
    const OpGraph large =
        GraphBuilder(model, large_plan, cluster, comm).build(large_build);
    BuildOptions small_build;
    small_build.n_micro_override = 2;
    const OpGraph small =
        GraphBuilder(model, tinyPlan(), cluster, comm).build(small_build);
    ASSERT_GT(large.numNodes(), 4 * small.numNodes());

    // `perturbed` selects a fresh testbed perturber (same seed, so
    // every run draws the same noise); it has no provenance.
    const auto run = [&](const OpGraph &ops, bool perturbed,
                         std::vector<double> storage = {}) {
        SyntheticProfiler profiler(cluster.node.gpu);
        OperatorToTaskTable table(profiler);
        TestbedPerturber perturber(TestbedConfig{}, 42, 1.05);
        ExpandOptions options;
        options.perturber = perturbed ? &perturber : nullptr;
        Expansion out;
        out.tasks = TaskGraph::expand(
            ops, table, options, perturbed ? nullptr : &out.provenance,
            &out.first, std::move(storage));
        return out;
    };
    const auto on_fresh_thread = [&](const OpGraph &ops, bool perturbed) {
        Expansion out;
        std::exception_ptr error;
        std::thread([&] {
            try {
                out = run(ops, perturbed);
            } catch (...) {
                error = std::current_exception();
            }
        }).join();
        if (error)
            std::rethrow_exception(error);
        return out;
    };

    Expansion first_large = run(large, false);
    expectSameExpansion(first_large, on_fresh_thread(large, false));
    expectSameExpansion(run(small, false), on_fresh_thread(small, false));
    expectSameExpansion(run(large, true), on_fresh_thread(large, true));
    const Expansion again =
        run(large, false, std::move(first_large.tasks).releaseDurations());
    expectSameExpansion(again, on_fresh_thread(large, false));
}

TEST(TaskGraphBuilder, BuildsChain)
{
    TaskGraph::Builder b;
    const auto t0 = b.addTask(1.0, 0);
    const auto t1 = b.addTask(2.0, 0);
    b.addEdge(t0, t1);
    const TaskGraph g = std::move(b).build(1);
    EXPECT_EQ(g.numTasks(), 2u);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(queue_order::inDegrees(g)[1], 1);
    EXPECT_EQ(*g.childBegin(0), 1);
}

TEST(TaskGraphBuilder, RejectsOutOfRangeDevice)
{
    // TaskMeta keeps OpNode's int16_t device id.
    TaskGraph::Builder b;
    EXPECT_EQ(b.addTask(1.0, 32767), 0);
    EXPECT_EQ(b.addTask(1.0, -32768), 1);
    for (const int32_t device : {32768, -32769, 1 << 20}) {
        try {
            b.addTask(1.0, device);
            ADD_FAILURE() << "device " << device << " was accepted";
        } catch (const std::logic_error &e) {
            EXPECT_NE(std::string(e.what()).find(std::to_string(device)),
                      std::string::npos)
                << e.what();
        }
    }
    const TaskGraph g = std::move(b).build(1);
    EXPECT_EQ(g.numTasks(), 2u);
    EXPECT_EQ(g.metas()[0].device, 32767);
    EXPECT_EQ(g.metas()[1].device, -32768);
}

TEST(TaskGraphBuilder, RejectsBadEdge)
{
    TaskGraph::Builder b;
    b.addTask(1.0, 0);
    EXPECT_THROW(b.addEdge(0, 7), std::logic_error);
}

} // namespace
} // namespace vtrain
