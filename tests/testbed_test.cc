/**
 * @file
 * Tests of the testbed surrogate ("measured" system): determinism,
 * systematic slowdown vs. the vTrain prediction, and the
 * tensor-parallelism-dependent error the paper reports (Sec. IV).
 */
#include <gtest/gtest.h>

#include "model/zoo.h"
#include "testbed/testbed.h"

namespace vtrain {
namespace {

ModelConfig
tinyModel()
{
    return makeModel(1024, 8, 16, 512, 8192);
}

ParallelConfig
plan(int t, int d, int p, int m, int batch)
{
    ParallelConfig out;
    out.tensor = t;
    out.data = d;
    out.pipeline = p;
    out.micro_batch_size = m;
    out.global_batch_size = batch;
    return out;
}

TEST(Testbed, DeterministicMeasurements)
{
    TestbedSimulator a(makeCluster(8));
    TestbedSimulator b(makeCluster(8));
    const auto model = tinyModel();
    const auto p = plan(2, 2, 2, 1, 16);
    EXPECT_DOUBLE_EQ(a.measureIteration(model, p).iteration_seconds,
                     b.measureIteration(model, p).iteration_seconds);
}

TEST(Testbed, DifferentSeedsDifferentMeasurements)
{
    TestbedSimulator a(makeCluster(8), TestbedConfig{}, 1);
    TestbedSimulator b(makeCluster(8), TestbedConfig{}, 2);
    const auto model = tinyModel();
    const auto p = plan(2, 2, 2, 1, 16);
    EXPECT_NE(a.measureIteration(model, p).iteration_seconds,
              b.measureIteration(model, p).iteration_seconds);
}

TEST(Testbed, MeasuredSlowerThanPredicted)
{
    // All surrogate effects slow the system down, mirroring the
    // paper's observation that vTrain underestimates latency.
    Simulator predictor(makeCluster(16));
    TestbedSimulator testbed(makeCluster(16));
    const auto model = tinyModel();
    for (int t : {1, 2, 4}) {
        const auto p = plan(t, 2, 2, 1, 16);
        const double predicted =
            predictor.simulateIteration(model, p).iteration_seconds;
        const double measured =
            testbed.measureIteration(model, p).iteration_seconds;
        EXPECT_GT(measured, predicted);
        EXPECT_LT(measured, 1.5 * predicted);
    }
}

TEST(Testbed, TensorParallelConfigsHaveLargerError)
{
    // The paper: underestimation is "especially more pronounced when
    // tensor parallelism is employed" because TP All-Reduces are the
    // most frequent collectives.
    Simulator predictor(makeCluster(8));
    TestbedSimulator testbed(makeCluster(8));
    const auto model = tinyModel();

    const auto p_tp = plan(8, 1, 1, 2, 16);
    const auto p_dp = plan(1, 1, 2, 2, 16);
    const double err_tp =
        testbed.measureIteration(model, p_tp).iteration_seconds /
            predictor.simulateIteration(model, p_tp)
                .iteration_seconds -
        1.0;
    const double err_dp =
        testbed.measureIteration(model, p_dp).iteration_seconds /
            predictor.simulateIteration(model, p_dp)
                .iteration_seconds -
        1.0;
    EXPECT_GT(err_tp, err_dp);
}

TEST(TestbedPerturber, ComputeSystematicFactor)
{
    TestbedConfig config;
    config.kernel_jitter_sigma = 0.0;
    TestbedPerturber perturber(config, 42);
    OpNode node;
    node.type = OpNodeType::Compute;
    EXPECT_NEAR(perturber.perturbCompute(1.0, node),
                config.kernel_systematic, 1e-12);
}

TEST(TestbedPerturber, IntraAllReduceInflation)
{
    TestbedConfig config;
    config.nccl_launch_overhead = 0.0;
    config.straggler_sigma = 0.0;
    TestbedPerturber perturber(config, 42);
    OpNode node;
    node.type = OpNodeType::Comm;
    node.comm_kind = CommKind::TpAllReduce;
    node.comm_scope = CommScope::IntraNode;
    const double out = perturber.perturbComm(1e-3, node);
    // ~30% inflation with +-2% lognormal noise.
    EXPECT_NEAR(out, 1.3e-3, 0.1e-3);
}

TEST(TestbedPerturber, InterferenceGrowsWithGroups)
{
    TestbedConfig config;
    config.nccl_launch_overhead = 0.0;
    config.straggler_sigma = 0.0;
    OpNode node;
    node.type = OpNodeType::Comm;
    node.comm_kind = CommKind::DpAllReduce;
    node.comm_scope = CommScope::InterNode;
    node.comm_workers = 8;

    node.comm_concurrent_groups = 1;
    TestbedPerturber p1(config, 7);
    const double one_group = p1.perturbComm(1e-3, node);
    node.comm_concurrent_groups = 8;
    TestbedPerturber p8(config, 7);
    const double eight_groups = p8.perturbComm(1e-3, node);
    EXPECT_GT(eight_groups, one_group);
}

TEST(TestbedPerturber, StragglerGrowsWithWorkers)
{
    // Stragglers are modelled at inter-node synchronization points.
    TestbedConfig config;
    config.nccl_launch_overhead = 0.0;
    OpNode node;
    node.type = OpNodeType::Comm;
    node.comm_kind = CommKind::DpAllReduce;
    node.comm_scope = CommScope::InterNode;
    node.comm_concurrent_groups = 1;

    node.comm_workers = 2;
    const double few =
        TestbedPerturber(config, 7).perturbComm(1e-3, node);
    node.comm_workers = 64;
    const double many =
        TestbedPerturber(config, 7).perturbComm(1e-3, node);
    EXPECT_GT(many, few);
}

TEST(Testbed, MeasurementsPinnedAcrossExpansionOrder)
{
    // The surrogate's perturber draws one RNG value per (operator,
    // kernel) in operator order, so its measurements pin that draw
    // order independently of how expansion numbers the tasks.  The
    // values are exact (hexfloat): any reordering of the draws, or of
    // the engine's floating-point accumulations, moves them.
    TestbedSimulator testbed(makeCluster(16));
    const auto model = tinyModel();
    ParallelConfig gpipe = plan(1, 2, 4, 1, 64);
    gpipe.schedule = PipelineSchedule::GPipe;
    ParallelConfig zero = plan(1, 4, 2, 1, 64);
    zero.zero_stage = 1;
    zero.gradient_bucketing = false;
    const struct {
        ParallelConfig plan;
        double seconds;
    } pins[] = {
        {plan(2, 2, 2, 1, 16), 0x1.50969a010cfc6p-5},
        {gpipe, 0x1.48810d4b1e76cp-4},
        {plan(4, 1, 2, 2, 64), 0x1.61be1183e0adcp-3},
        {zero, 0x1.2e27cffb39369p-4},
    };
    for (const auto &pin : pins)
        EXPECT_EQ(testbed.measureIteration(model, pin.plan)
                      .iteration_seconds,
                  pin.seconds)
            << toString(pin.plan.schedule) << " t" << pin.plan.tensor
            << " d" << pin.plan.data << " p" << pin.plan.pipeline;
}

TEST(Testbed, MeasurementSeedDistinguishesPlans)
{
    const auto model = tinyModel();
    const uint64_t a =
        measurementSeed(model, plan(2, 2, 2, 1, 16), 0);
    const uint64_t b =
        measurementSeed(model, plan(4, 1, 2, 1, 16), 0);
    EXPECT_NE(a, b);
}

TEST(Testbed, MeasurementSeedStable)
{
    const auto model = tinyModel();
    EXPECT_EQ(measurementSeed(model, plan(2, 2, 2, 1, 16), 5),
              measurementSeed(model, plan(2, 2, 2, 1, 16), 5));
}

} // namespace
} // namespace vtrain
