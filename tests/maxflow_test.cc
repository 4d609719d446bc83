#include "reference/maxflow.h"

#include <gtest/gtest.h>

namespace pf {
namespace {

TEST(MaxFlowTest, SingleEdge) {
  MaxFlow f(2);
  f.AddEdge(0, 1, 3.5);
  EXPECT_DOUBLE_EQ(f.Compute(0, 1), 3.5);
}

TEST(MaxFlowTest, SeriesBottleneck) {
  MaxFlow f(3);
  f.AddEdge(0, 1, 5.0);
  f.AddEdge(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(f.Compute(0, 2), 2.0);
}

TEST(MaxFlowTest, ParallelPathsAdd) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 1.0);
  f.AddEdge(1, 3, 1.0);
  f.AddEdge(0, 2, 2.0);
  f.AddEdge(2, 3, 2.0);
  EXPECT_DOUBLE_EQ(f.Compute(0, 3), 3.0);
}

TEST(MaxFlowTest, ClassicDiamondWithCrossEdge) {
  // Needs an augmenting path through the residual graph.
  MaxFlow f(4);
  f.AddEdge(0, 1, 1.0);
  f.AddEdge(0, 2, 1.0);
  f.AddEdge(1, 2, 1.0);
  f.AddEdge(1, 3, 1.0);
  f.AddEdge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(f.Compute(0, 3), 2.0);
}

TEST(MaxFlowTest, DisconnectedIsZero) {
  MaxFlow f(4);
  f.AddEdge(0, 1, 1.0);
  f.AddEdge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(f.Compute(0, 3), 0.0);
}

TEST(MaxFlowTest, FractionalCapacities) {
  // Bipartite transport: sources 1,2 with 0.3/0.7; sinks 3,4 want 0.5/0.5;
  // edges 1->3, 2->3, 2->4.
  MaxFlow f(6);
  f.AddEdge(0, 1, 0.3);
  f.AddEdge(0, 2, 0.7);
  f.AddEdge(1, 3, 1.0);
  f.AddEdge(2, 3, 1.0);
  f.AddEdge(2, 4, 1.0);
  f.AddEdge(3, 5, 0.5);
  f.AddEdge(4, 5, 0.5);
  EXPECT_NEAR(f.Compute(0, 5), 1.0, 1e-9);
}

TEST(MaxFlowTest, InfeasibleTransportFallsShort) {
  // Sink 4 demands 0.5 but only source 1 (0.2) reaches it.
  MaxFlow f(6);
  f.AddEdge(0, 1, 0.2);
  f.AddEdge(0, 2, 0.8);
  f.AddEdge(1, 4, 1.0);
  f.AddEdge(2, 3, 1.0);
  f.AddEdge(3, 5, 0.5);
  f.AddEdge(4, 5, 0.5);
  EXPECT_NEAR(f.Compute(0, 5), 0.7, 1e-9);
}

}  // namespace
}  // namespace pf
