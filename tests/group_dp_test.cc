#include "baselines/group_dp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "pufferfish/mechanism.h"

namespace pf {
namespace {

TEST(GroupDpTest, ScaleIsGroupSensitivityOverEpsilon) {
  EXPECT_DOUBLE_EQ(GroupDpUnified(4.0).Analyze(2.0).ValueOrDie().sigma, 2.0);
}

TEST(GroupDpTest, Validation) {
  EXPECT_FALSE(GroupDpUnified(1.0).Analyze(-1.0).ok());
  EXPECT_FALSE(GroupDpUnified(-1.0).Analyze(1.0).ok());
}

TEST(GroupDpTest, RelativeFrequencySensitivitySingleChain) {
  // One chain: changing everything moves the histogram by 2.
  const std::vector<StateSequence> seqs = {StateSequence(100, 0)};
  EXPECT_DOUBLE_EQ(RelativeFrequencyGroupSensitivity(seqs).ValueOrDie(), 2.0);
}

TEST(GroupDpTest, RelativeFrequencySensitivityManyChains) {
  // Longest chain 60 of 100 total: sensitivity 2 * 60/100.
  const std::vector<StateSequence> seqs = {StateSequence(60, 0),
                                           StateSequence(40, 1)};
  EXPECT_DOUBLE_EQ(RelativeFrequencyGroupSensitivity(seqs).ValueOrDie(), 1.2);
}

TEST(GroupDpTest, RelativeFrequencySensitivityEmptyFails) {
  EXPECT_FALSE(RelativeFrequencyGroupSensitivity({}).ok());
}

TEST(GroupDpTest, MeanStateGroupSensitivity) {
  EXPECT_DOUBLE_EQ(MeanStateGroupSensitivity(2), 1.0);
  EXPECT_DOUBLE_EQ(MeanStateGroupSensitivity(51), 50.0);
}

TEST(GroupDpTest, ExpectedErrorMatchesPaperScaling) {
  // Section 5.2: GroupDP on the mean-state query has error ~ 1/epsilon
  // (reported as ~5, ~1, ~0.2 for epsilon = 0.2, 1, 5).
  Rng rng(8);
  for (double eps : {0.2, 1.0, 5.0}) {
    const auto plan =
        GroupDpUnified(MeanStateGroupSensitivity(2)).Analyze(eps).ValueOrDie();
    double abs_err = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
      abs_err +=
          std::fabs(ReleaseVector(plan, {0.0}, 1.0, &rng).ValueOrDie()[0]);
    }
    EXPECT_NEAR(abs_err / n, 1.0 / eps, 0.12 / eps);
  }
}

}  // namespace
}  // namespace pf
