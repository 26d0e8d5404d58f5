/**
 * @file
 * Pipeline-schedule visualizer: renders the paper's Fig. 7 as ASCII —
 * the per-GPU timeline of forward/backward micro-batches under GPipe
 * vs. 1F1B scheduling, taken from an actual engine trace (not a
 * drawing): the operator graph is built by GraphBuilder and replayed
 * by Algorithm 1 with per-task trace recording.
 *
 *   ./pipeline_visualizer [pipeline_stages] [micro_batches]
 *
 * Forward passes print as digits ('1' = micro-batch 1), backward
 * passes as letters ('a' = micro-batch 1), '.' is idle (a pipeline
 * bubble).
 */
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "vtrain/vtrain.h"

using namespace vtrain;

namespace {

void
render(PipelineSchedule schedule, int p, int n_micro)
{
    // A tiny uniform model so forward blocks are equal-width.
    const ModelConfig model = makeModel(1024, 8 * p / p * p, 16, 512,
                                        8192);
    const ClusterSpec cluster = makeCluster(p);
    ParallelConfig plan;
    plan.tensor = 1;
    plan.data = 1;
    plan.pipeline = p;
    plan.micro_batch_size = 1;
    plan.global_batch_size = n_micro;
    plan.schedule = schedule;
    plan.activation_recompute = false;

    CommModel comm(cluster);
    GraphBuilder builder(model, plan, cluster, comm);
    const OpGraph ops = builder.build();

    SyntheticProfiler profiler(cluster.node.gpu);
    OperatorToTaskTable table(profiler);
    ExpandOptions expand;
    expand.collapse_operators = true; // one task per operator
    std::vector<int32_t> op_task; // operator -> its task's id
    const TaskGraph tasks =
        TaskGraph::expand(ops, table, expand, nullptr, &op_task);

    std::vector<TaskSpan> trace;
    const EngineResult result = runSimulation(tasks, &trace);

    const int width = 100;
    const double scale = width / result.makespan;
    std::vector<std::string> rows(p, std::string(width, '.'));
    for (size_t i = 0; i < ops.numNodes(); ++i) {
        const OpNode &node = ops.nodes()[i];
        if (node.type != OpNodeType::Compute || node.micro_batch < 0)
            continue;
        const OpDesc &desc = ops.descOf(node);
        if (desc.kind == OpKind::WeightUpdate)
            continue;
        const char mark =
            isBackward(desc.kind)
                ? static_cast<char>('a' + node.micro_batch % 26)
                : static_cast<char>('1' + node.micro_batch % 9);
        const TaskSpan &span = trace[op_task[i]];
        const int lo = static_cast<int>(span.start * scale);
        const int hi = static_cast<int>(span.end * scale);
        for (int x = lo; x <= hi && x < width; ++x)
            rows[node.device][x] = mark;
    }

    std::printf("%s schedule, %d stages x %d micro-batches "
                "(iteration = %s):\n",
                toString(schedule).c_str(), p, n_micro,
                formatSeconds(result.makespan).c_str());
    for (int stage = 0; stage < p; ++stage)
        std::printf("  GPU %d |%s|\n", stage, rows[stage].c_str());

    // Bubble accounting.
    double busy = 0.0;
    for (double b : result.busy_compute)
        busy += b;
    std::printf("  pipeline bubbles: %.1f%% of GPU-time\n\n",
                100.0 * (1.0 - busy / (p * result.makespan)));
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const int p = argc > 1 ? std::atoi(argv[1]) : 4;
    const int n_micro = argc > 2 ? std::atoi(argv[2]) : 8;

    std::printf("Reproducing paper Fig. 7: forward = digits, backward "
                "= letters, '.' = bubble\n\n");
    render(PipelineSchedule::GPipe, p, n_micro);
    render(PipelineSchedule::OneFOneB, p, n_micro);

    std::printf("Note how 1F1B interleaves backward passes early, "
                "capping in-flight micro-batches at the pipeline depth "
                "(its memory advantage, Sec. II-B) while total bubbles "
                "match GPipe.\n");
    return 0;
}
