/**
 * @file
 * Figure 9: validation of vTrain-predicted vs. measured
 * single-iteration training time.
 *
 *  (a) single-node: a sweep of LLM configurations and (t, d, p, m)
 *      plans on one 8 x A100 node (paper: 1,440 points, MAPE 8.37%,
 *      R^2 0.9896);
 *  (b) multi-node: Megatron-LM-style configurations on up to 512
 *      GPUs (paper: 116 points, MAPE 14.73%, R^2 0.9887).
 *
 * "Measured" times come from the testbed surrogate (see DESIGN.md);
 * the bench reports the same MAPE / R^2 statistics as the paper.
 */
#include "validation_common.h"

#include <iostream>

using namespace vtrain;

namespace {

void
report(const char *name, const bench::ValidationRun &stats,
       double paper_mape, double paper_r2)
{
    std::printf("%s: %zu data points\n", name, stats.predicted.size());
    std::printf("  MAPE = %.2f%% (paper: %.2f%%)\n",
                mape(stats.predicted, stats.measured), paper_mape);
    std::printf("  R^2  = %.4f (paper: %.4f)\n",
                rSquared(stats.predicted, stats.measured), paper_r2);
    const LinearFit fit = linearFit(stats.measured, stats.predicted);
    std::printf("  fit: predicted = %.3f * measured + %.4f\n\n",
                fit.slope, fit.intercept);
}

} // namespace

int
main()
{
    setVerbose(false);
    bench::banner("Figure 9",
                  "Predicted vs. measured single-iteration training "
                  "time (single-node and multi-node)");

    // (a) Single-node: one 8-GPU A100 node; (b) multi-node: 64-512
    // GPUs, Megatron-LM-style models.
    const bench::ValidationRun single =
        bench::runValidation(bench::singleNodeValidationPoints());
    report("Fig. 9(a) single-node validation", single,
           bench::kPaperSingleNodeMape, 0.9896);
    const bench::ValidationRun multi =
        bench::runValidation(bench::multiNodeValidationPoints());
    report("Fig. 9(b) multi-node validation", multi,
           bench::kPaperMultiNodeMape, 0.9887);

    // ----------------------------------------------------------------
    // Bandwidth-effectiveness sweep (Sec. IV): the paper sweeps alpha
    // from 0.1 to 1.0 and finds the multi-node error minimized at
    // alpha = 1.0 (all inter-node bandwidth usable).
    // ----------------------------------------------------------------
    std::printf("Bandwidth-effectiveness factor sweep (Sec. IV):\n");
    {
        // Re-predict the multi-node points under each alpha; the
        // "measured" values are fixed (the testbed is the testbed).
        struct MultiPlan {
            ModelConfig model;
            int gpus, t, d, p, m, batch;
        };
        std::vector<MultiPlan> plans;
        for (int m : {1, 4}) {
            plans.push_back({zoo::scaled3_6b(), 64, 2, 32, 1, m, 512});
            plans.push_back({zoo::scaled18_4b(), 256, 8, 32, 1, m,
                             1024});
            plans.push_back({zoo::scaled39_1b(), 512, 8, 32, 2, m,
                             1536});
            plans.push_back({zoo::scaled39_1b(), 512, 4, 32, 4, m,
                             1536});
        }
        // The paper's validation runs use Megatron-LM, whose gradient
        // All-Reduce fires once after the backward pass (Fig. 5(b));
        // an unhidden reduction is what makes alpha observable.
        auto sweep_plan = [](const MultiPlan &p) {
            ParallelConfig plan =
                bench::makePlan(p.t, p.d, p.p, p.m, p.batch);
            plan.gradient_bucketing = false;
            return plan;
        };
        std::vector<double> measured_fixed;
        for (const auto &p : plans) {
            TestbedSimulator testbed(makeCluster(p.gpus));
            measured_fixed.push_back(
                testbed.measureIteration(p.model, sweep_plan(p))
                    .iteration_seconds);
        }
        TextTable sweep({"alpha", "multi-node MAPE"});
        double best_alpha = 0.0, best_mape = 1e9, worst_mape = 0.0;
        for (double alpha = 0.1; alpha <= 1.001; alpha += 0.1) {
            std::vector<double> predicted;
            for (const auto &p : plans) {
                ClusterSpec cluster = makeCluster(p.gpus);
                cluster.bandwidth_effectiveness = alpha;
                Simulator predictor(cluster);
                predicted.push_back(
                    predictor.simulateIteration(p.model, sweep_plan(p))
                        .iteration_seconds);
            }
            const double err = mape(predicted, measured_fixed);
            sweep.addRow({fmtDouble(alpha, 1),
                          fmtDouble(err, 2) + "%"});
            if (err < best_mape) {
                best_mape = err;
                best_alpha = alpha;
            }
            worst_mape = std::max(worst_mape, err);
        }
        sweep.print(std::cout);
        std::printf("error minimized at alpha = %.1f, curve spread "
                    "%.2f pp (paper: minimized at 1.0).  The curve is "
                    "shallow here because the surrogate testbed's "
                    "inter-node share of iteration time is smaller "
                    "than the real cluster's; alpha stays at the "
                    "paper's 1.0 default.\n\n",
                    best_alpha, worst_mape - best_mape);
    }

    // A scatter sample so the shape of Fig. 9 is visible in text.
    std::printf("Scatter sample (multi-node, first 10 points):\n");
    TextTable table({"Measured (s)", "Predicted (s)", "Error"});
    for (size_t i = 0; i < multi.predicted.size() && i < 10; ++i) {
        const double err = 100.0 *
                           (multi.predicted[i] - multi.measured[i]) /
                           multi.measured[i];
        table.addRow({fmtDouble(multi.measured[i], 3),
                      fmtDouble(multi.predicted[i], 3),
                      fmtDouble(err, 1) + "%"});
    }
    table.print(std::cout);
    return 0;
}
