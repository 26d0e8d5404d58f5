/**
 * @file
 * Pins vTrain's accuracy against the testbed surrogate to the paper's
 * Fig. 9 errors: the full single-node and multi-node validation grids
 * of bench/fig09_validation must predict within the MAPE the paper
 * reports (8.37% single-node, 14.73% multi-node).  A change to the
 * simulator or its timing path that costs fidelity fails here.
 */
#include <gtest/gtest.h>

#include "../bench/validation_common.h"

namespace vtrain {
namespace {

TEST(Fidelity, Fig9SingleNodeMapeWithinPaper)
{
    const std::vector<bench::ValidationPoint> points =
        bench::singleNodeValidationPoints();
    ASSERT_EQ(points.size(), 224u) << "the Fig. 9(a) grid changed";
    const bench::ValidationRun run = bench::runValidation(points);
    EXPECT_LE(mape(run.predicted, run.measured),
              bench::kPaperSingleNodeMape);
}

TEST(Fidelity, Fig9MultiNodeMapeWithinPaper)
{
    const std::vector<bench::ValidationPoint> points =
        bench::multiNodeValidationPoints();
    ASSERT_EQ(points.size(), 56u) << "the Fig. 9(b) grid changed";
    const bench::ValidationRun run = bench::runValidation(points);
    EXPECT_LE(mape(run.predicted, run.measured),
              bench::kPaperMultiNodeMape);
}

} // namespace
} // namespace vtrain
