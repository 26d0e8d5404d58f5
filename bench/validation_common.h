/**
 * @file
 * The Fig. 9 validation grids, shared by the fig09_validation bench
 * and the tier-1 fidelity test (tests/fidelity_test.cc), so the error
 * bounds the test pins are measured on exactly the points the bench
 * reports.
 */
#ifndef VTRAIN_BENCH_VALIDATION_COMMON_H
#define VTRAIN_BENCH_VALIDATION_COMMON_H

#include <vector>

#include "bench_common.h"

namespace vtrain {
namespace bench {

/** The paper's Fig. 9 validation errors (MAPE, percent). */
constexpr double kPaperSingleNodeMape = 8.37;
constexpr double kPaperMultiNodeMape = 14.73;

/** One validation point: `plan` of `model` on a `gpus`-GPU cluster. */
struct ValidationPoint {
    ModelConfig model;
    int gpus = 0;
    ParallelConfig plan;
};

/** Predicted and testbed-measured iteration seconds, per point. */
struct ValidationRun {
    std::vector<double> predicted;
    std::vector<double> measured;
};

/**
 * Fig. 9(a): LLM configurations in the 1-7B range and every
 * (t, d, p, m) plan that fills one 8 x A100 node, is valid and fits
 * in GPU memory.
 */
inline std::vector<ValidationPoint>
singleNodeValidationPoints()
{
    const ClusterSpec cluster = makeCluster(8);
    const std::vector<ModelConfig> models = {
        makeModel(1536, 24, 16), makeModel(2048, 24, 16),
        makeModel(2048, 32, 32), makeModel(2560, 32, 32),
        makeModel(3072, 30, 32), makeModel(4096, 24, 32),
    };
    std::vector<ValidationPoint> points;
    for (const auto &model : models) {
        for (int t : {1, 2, 4, 8}) {
            for (int d : {1, 2, 4, 8}) {
                for (int p : {1, 2, 4, 8}) {
                    if (t * d * p != 8 || model.num_layers % p != 0)
                        continue;
                    for (int m : {1, 2, 4, 8}) {
                        const ParallelConfig plan =
                            makePlan(t, d, p, m, 64);
                        if (plan.valid(model, cluster) &&
                            fitsInMemory(model, plan, cluster.node.gpu))
                            points.push_back({model, 8, plan});
                    }
                }
            }
        }
    }
    return points;
}

/**
 * Fig. 9(b): Megatron-LM-style configurations on 64-512 GPUs, the
 * valid plans that fit in GPU memory.
 */
inline std::vector<ValidationPoint>
multiNodeValidationPoints()
{
    struct Row {
        ModelConfig model;
        int gpus, t, d, p, batch;
    };
    const ModelConfig m3_6 = zoo::scaled3_6b();
    const ModelConfig m18 = zoo::scaled18_4b();
    const ModelConfig m39 = zoo::scaled39_1b();
    const std::vector<Row> rows = {
        {m3_6, 64, 2, 32, 1, 512},    {m3_6, 64, 1, 64, 1, 512},
        {m3_6, 64, 4, 16, 1, 512},    {m3_6, 128, 2, 64, 1, 512},
        {m18, 256, 8, 32, 1, 1024},   {m18, 256, 8, 16, 2, 1024},
        {m18, 128, 8, 16, 1, 1024},   {m18, 512, 8, 64, 1, 1024},
        {m39, 512, 8, 32, 2, 1536},   {m39, 512, 4, 32, 4, 1536},
        {m39, 512, 8, 16, 4, 1536},   {m39, 256, 8, 16, 2, 1536},
        {m39, 512, 2, 64, 4, 1536},   {m39, 384, 8, 16, 3, 1536},
        {m39, 512, 8, 8, 8, 1536},
    };
    std::vector<ValidationPoint> points;
    for (int m : {1, 2, 4, 8}) {
        for (const Row &row : rows) {
            const ClusterSpec cluster = makeCluster(row.gpus);
            const ParallelConfig plan =
                makePlan(row.t, row.d, row.p, m, row.batch);
            if (plan.valid(row.model, cluster) &&
                fitsInMemory(row.model, plan, cluster.node.gpu))
                points.push_back({row.model, row.gpus, plan});
        }
    }
    return points;
}

/** Predicts every point with vTrain and measures it on the testbed
 *  surrogate. */
inline ValidationRun
runValidation(const std::vector<ValidationPoint> &points)
{
    ValidationRun run;
    for (const ValidationPoint &point : points) {
        const ClusterSpec cluster = makeCluster(point.gpus);
        Simulator predictor(cluster);
        TestbedSimulator testbed(cluster);
        run.predicted.push_back(
            predictor.simulateIteration(point.model, point.plan)
                .iteration_seconds);
        run.measured.push_back(
            testbed.measureIteration(point.model, point.plan)
                .iteration_seconds);
    }
    return run;
}

} // namespace bench
} // namespace vtrain

#endif // VTRAIN_BENCH_VALIDATION_COMMON_H
