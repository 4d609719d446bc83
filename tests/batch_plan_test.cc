// The columnar plan frontend: BatchQuerySpec parsing into the logical plan
// (window resolution, row-to-unique projection, per-call compile dedupe),
// lowering to physical kernel nodes (shared aggregation passes, match-state
// dedupe, the 1/T derive constants), Explain() output, and ExecuteBatchPlan's
// bit-exact contract against the scalar query + noise primitives.
#include "engine/batch_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "common/random.h"
#include "engine/engine.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

MarkovChain PlanChain() {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{0.8, 0.2}, {0.3, 0.7}})
      .ValueOrDie();
}

std::unique_ptr<PrivacyEngine> PlanEngine(std::size_t length) {
  return PrivacyEngine::Create(ModelSpec::ChainClass({PlanChain()}, length))
      .ValueOrDie();
}

StateSequence PlanData(std::size_t length) {
  StateSequence data(length);
  for (std::size_t i = 0; i < length; ++i) {
    data[i] = static_cast<int>((i / 3) % 2);
  }
  return data;
}

// ------------------------------------------------------ window resolution --

TEST(ResolveDataWindowTest, ResolvesAllRangeAndSuffix) {
  auto all = ResolveDataWindow(DataWindow::All(), 20).ValueOrDie();
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, 20u);
  auto range = ResolveDataWindow(DataWindow::Range(4, 8), 20).ValueOrDie();
  EXPECT_EQ(range.first, 4u);
  EXPECT_EQ(range.second, 8u);
  auto suffix = ResolveDataWindow(DataWindow::Last(6), 20).ValueOrDie();
  EXPECT_EQ(suffix.first, 14u);
  EXPECT_EQ(suffix.second, 6u);
}

TEST(ResolveDataWindowTest, RefusesOutOfRangeWindows) {
  EXPECT_FALSE(ResolveDataWindow(DataWindow::Last(21), 20).ok());
  EXPECT_FALSE(ResolveDataWindow(DataWindow::Range(20, 1), 20).ok());
  EXPECT_FALSE(ResolveDataWindow(DataWindow::Range(15, 6), 20).ok());
  EXPECT_FALSE(ResolveDataWindow(DataWindow::Last(0), 20).ok());
}

// ------------------------------------------------------------ compilation --

TEST(BatchPlanTest, ProjectsRowsOntoUniqueQueriesAndWindows) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  // 6 rows, but only 3 unique (window, spec) pairs over 2 windows.
  batch.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Mean(0.5))
      .Add(QuerySpec::Sum(0.5), DataWindow::Last(8))
      .Add(QuerySpec::Sum(0.5), DataWindow::Last(8))
      .Add(QuerySpec::Sum(0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  EXPECT_EQ(plan.num_rows(), 6u);
  ASSERT_EQ(plan.logical.windows.size(), 2u);
  ASSERT_EQ(plan.logical.unique.size(), 3u);
  EXPECT_EQ(plan.compiled.size(), 3u);
  EXPECT_TRUE(plan.logical.windows[0].full_record);
  EXPECT_EQ(plan.logical.windows[1].offset, 16u);
  EXPECT_EQ(plan.logical.windows[1].length, 8u);
  // Row projection keeps submission order: rows 0,1,5 share unique 0.
  EXPECT_EQ(plan.logical.row_to_unique[0], 0u);
  EXPECT_EQ(plan.logical.row_to_unique[1], 0u);
  EXPECT_EQ(plan.logical.row_to_unique[2], 1u);
  EXPECT_EQ(plan.logical.row_to_unique[3], 2u);
  EXPECT_EQ(plan.logical.row_to_unique[5], 0u);
  EXPECT_EQ(plan.logical.unique[0].num_rows, 3u);
  // All rows are scalar kinds: one value each.
  EXPECT_EQ(plan.logical.total_values, 6u);
  // Full-record rows take the model's T; windowed rows the window's.
  EXPECT_EQ(plan.logical.unique[0].compile_length, 24u);
  EXPECT_EQ(plan.logical.unique[2].compile_length, 8u);
}

TEST(BatchPlanTest, LoweringSharesAggregatesAndDedupesMatchStates) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Mean(0.5))
      .Add(QuerySpec::StateFrequency(1, 0.5))
      .Add(QuerySpec::StateFrequency(0, 0.5))
      .Add(QuerySpec::StateFrequency(1, 0.25))  // Same state, new epsilon.
      .Add(QuerySpec::CountHistogram(0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  // One window -> one aggregation pass feeding every built-in derive.
  ASSERT_EQ(plan.physical.aggregates.size(), 1u);
  const AggregateSpec& agg = plan.physical.aggregates[0].spec;
  EXPECT_TRUE(agg.need_sum);
  EXPECT_EQ(agg.k, 2u);  // CountHistogram wants the per-state counts.
  // Two distinct match states despite three StateFrequency uniques.
  ASSERT_EQ(agg.match_states.size(), 2u);
  EXPECT_EQ(agg.match_states[0], 1);
  EXPECT_EQ(agg.match_states[1], 0);
  ASSERT_EQ(plan.physical.derives.size(), 6u);
  EXPECT_EQ(plan.physical.derives[0].op, PhysicalBatchPlan::DeriveOp::kSum);
  EXPECT_EQ(plan.physical.derives[1].op, PhysicalBatchPlan::DeriveOp::kMean);
  EXPECT_TRUE(BitEqual(plan.physical.derives[1].inv, 1.0 / 24.0));
  EXPECT_EQ(plan.physical.derives[2].match_index, 0u);
  EXPECT_EQ(plan.physical.derives[3].match_index, 1u);
  EXPECT_EQ(plan.physical.derives[4].match_index, 0u);
  EXPECT_EQ(plan.physical.derives[5].op,
            PhysicalBatchPlan::DeriveOp::kCountHistogram);
}

TEST(BatchPlanTest, CustomQueriesLowerToEvaluateNodes) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::CustomScalar(
      "first-obs", [](const StateSequence& d) { return double(d[0]); }, 1.0,
      0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  EXPECT_TRUE(plan.physical.aggregates.empty());
  ASSERT_EQ(plan.physical.derives.size(), 1u);
  EXPECT_EQ(plan.physical.derives[0].op,
            PhysicalBatchPlan::DeriveOp::kEvaluate);
  EXPECT_EQ(plan.physical.derives[0].aggregate_index, kNoNode);
}

TEST(BatchPlanTest, RefusesEmptyBatchAndChainsRowContext) {
  auto engine = PlanEngine(24);
  EXPECT_EQ(CompileBatchPlan(engine.get(), BatchQuerySpec{}, 24)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  BatchQuerySpec bad;
  bad.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Sum(0.5), DataWindow::Last(99));  // Does not fit.
  const auto refused = CompileBatchPlan(engine.get(), bad, 24);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("batch row 1"), std::string::npos)
      << refused.status().ToString();
}

TEST(BatchPlanTest, ExplainShowsBothPlanLevels) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::FrequencyHistogram(0.5), DataWindow::Last(8));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  const std::string text = plan.Explain();
  EXPECT_NE(text.find("3 rows -> 2 unique queries over 2 windows"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("project -> window -> clip -> noise"),
            std::string::npos);
  EXPECT_NE(text.find("(full record)"), std::string::npos);
  EXPECT_NE(text.find("(x2 rows)"), std::string::npos);
  EXPECT_NE(text.find("aggregate(w"), std::string::npos);
  EXPECT_NE(text.find("hist[k=2]"), std::string::npos);
  EXPECT_NE(text.find("clip: scales[r]"), std::string::npos);
  EXPECT_NE(text.find("noise: Laplace"), std::string::npos) << text;
}

// The noise line names the kernel full row groups take, like the clip
// line's simd=: forcing the portable level must flip it to the scalar one.
TEST(BatchPlanTest, ExplainNamesTheNoiseKernel) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  const SimdLevel restore = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kPortable);
  const std::string portable = plan.Explain();
  SetSimdLevel(DetectedSimdLevel());
  const std::string detected = plan.Explain();
  const std::string detected_kernel = NoiseKernelName();
  SetSimdLevel(restore);
  EXPECT_NE(portable.find("TicketNoiseSeed(seed, ticket) (kernel=scalar)"),
            std::string::npos)
      << portable;
  EXPECT_NE(detected.find("(kernel=" + detected_kernel + ")"),
            std::string::npos)
      << detected;
  if (detected_kernel != "avx512x32") {
    GTEST_SKIP() << "CPU lacks AVX-512F/DQ: the noise kernel is scalar at "
                    "every SimdLevel, so the Explain() line cannot flip";
  }
  EXPECT_EQ(detected.find("kernel=scalar"), std::string::npos) << detected;
}

// -------------------------------------------------------------- execution --

// ExecuteBatchPlan against the primitives it promises to reproduce: truth
// from the scalar compiled query, noise from the per-ticket streams. This
// pins the contract at the plan level; batch_serving_test pins the same
// thing end-to-end through Session.
TEST(BatchPlanTest, ExecuteMatchesScalarPrimitivesBitForBit) {
  const std::size_t kLength = 24;
  auto engine = PlanEngine(kLength);
  const StateSequence data = PlanData(kLength);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5))
      .Add(QuerySpec::Mean(0.5))
      .Add(QuerySpec::FrequencyHistogram(0.5))
      .Add(QuerySpec::Mean(0.5), DataWindow::Last(8));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, kLength).ValueOrDie();
  const std::uint64_t kSeed = 1234;
  const std::uint64_t kFirstTicket = 5;
  const BatchReleaseResult result =
      ExecuteBatchPlan(plan, data, kSeed, kFirstTicket).ValueOrDie();
  ASSERT_EQ(result.batch.num_rows(), 4u);

  for (std::size_t r = 0; r < 4; ++r) {
    const std::size_t u = plan.logical.row_to_unique[r];
    const VectorQuery& q = plan.compiled[u].query;
    const LogicalBatchPlan::Window& win =
        plan.logical.windows[plan.logical.unique[u].window_index];
    const StateSequence slice(
        data.begin() + static_cast<std::ptrdiff_t>(win.offset),
        data.begin() + static_cast<std::ptrdiff_t>(win.offset + win.length));
    Vector expected = q.fn(slice);
    Rng rng(TicketNoiseSeed(kSeed, kFirstTicket + r));
    AddLaplaceNoise(expected.data(), expected.size(),
                    q.lipschitz * plan.compiled[u].plan->sigma, &rng);
    ASSERT_EQ(result.batch.row_size(r), expected.size());
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_TRUE(BitEqual(result.batch.row(r)[j], expected[j]))
          << "row " << r << " coord " << j;
    }
    EXPECT_EQ(result.batch.tickets()[r], kFirstTicket + r);
    EXPECT_TRUE(BitEqual(result.batch.epsilons()[r],
                         plan.compiled[u].plan->epsilon));
    EXPECT_TRUE(BitEqual(result.batch.noise_scales()[r],
                         q.lipschitz * plan.compiled[u].plan->sigma));
  }
}

TEST(BatchPlanTest, ExecuteRefusesMismatchedRecordSize) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::Sum(0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  const auto refused = ExecuteBatchPlan(plan, PlanData(23), 1, 0);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

// A misdeclared custom query is only discoverable post-charge; it must
// surface as a typed error, mirroring the scalar execute path.
TEST(BatchPlanTest, ExecuteSurfacesDimensionContractViolation) {
  auto engine = PlanEngine(24);
  BatchQuerySpec batch;
  batch.Add(QuerySpec::CustomVector(
      "liar", [](const StateSequence&) { return Vector{1.0}; }, 1.0,
      /*dim=*/3, 0.5));
  const CompiledBatchPlan plan =
      CompileBatchPlan(engine.get(), batch, 24).ValueOrDie();
  const auto failed = ExecuteBatchPlan(plan, PlanData(24), 1, 0);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_NE(failed.status().message().find("liar"), std::string::npos);
}

// -------------------------------------------------------- kernel identity --

// The SimdLevel dispatch seam: both aggregation kernels must produce the
// same integers on awkward sizes (tails, out-of-range states, repeated
// match targets). Integer arithmetic has no rounding, so equality is exact
// by construction — this guards the kernels' indexing, not their algebra.
TEST(BatchKernelsTest, PortableAndActiveLevelsAgree) {
  const std::size_t kSizes[] = {0, 1, 7, 8, 9, 31, 64, 100};
  for (const std::size_t n : kSizes) {
    std::vector<int> data(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = static_cast<int>((i * 7 + 3) % 5) - (i % 11 == 0 ? 1 : 0);
    }
    AggregateSpec spec;
    spec.k = 4;  // Values reach 4 and -1: both out of range.
    spec.need_sum = true;
    spec.match_states = {0, 2, 4, -1, 2};

    const SimdLevel restore = ActiveSimdLevel();
    std::vector<std::int64_t> counts_a(spec.k), matches_a(5);
    AggregateStats a{};
    a.counts = counts_a.data();
    a.match_counts = matches_a.data();
    SetSimdLevel(SimdLevel::kPortable);
    AggregateStates(data.data(), n, spec, &a);

    std::vector<std::int64_t> counts_b(spec.k), matches_b(5);
    AggregateStats b{};
    b.counts = counts_b.data();
    b.match_counts = matches_b.data();
    SetSimdLevel(DetectedSimdLevel());
    AggregateStates(data.data(), n, spec, &b);
    SetSimdLevel(restore);

    EXPECT_EQ(a.sum, b.sum) << "n=" << n;
    EXPECT_EQ(a.out_of_range, b.out_of_range) << "n=" << n;
    EXPECT_EQ(counts_a, counts_b) << "n=" << n;
    EXPECT_EQ(matches_a, matches_b) << "n=" << n;
  }
}

TEST(BatchKernelsTest, ClipScalesMatchesScalarProductBitwise) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{7},
                              std::size_t{33}}) {
    std::vector<double> lipschitz(n), sigmas(n), portable(n), active(n);
    for (std::size_t i = 0; i < n; ++i) {
      lipschitz[i] = 0.1 * static_cast<double>(i + 1) / 3.0;
      sigmas[i] = 7.0 / static_cast<double>(i + 2);
    }
    const SimdLevel restore = ActiveSimdLevel();
    SetSimdLevel(SimdLevel::kPortable);
    ClipScales(lipschitz.data(), sigmas.data(), n, portable.data());
    SetSimdLevel(DetectedSimdLevel());
    ClipScales(lipschitz.data(), sigmas.data(), n, active.data());
    SetSimdLevel(restore);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(portable[i], lipschitz[i] * sigmas[i]));
      EXPECT_TRUE(BitEqual(portable[i], active[i])) << "n=" << n << " i=" << i;
    }
  }
}

TEST(BatchKernelsTest, BatchLaplaceNoiseMatchesPerRowRngBitForBit) {
  // The interleaved kernel against the scalar release loop it replicates:
  // mixed row widths (scalars, histograms, an empty row, and one 700-wide
  // row that forces the in-place retwist — more draws than the 312-word
  // mt19937_64 state holds), mixed scales including zero, and enough rows
  // to cover full lane groups plus a partial tail group.
  const std::vector<std::size_t> widths = {1, 8, 0, 700, 1, 3, 1, 1,
                                           2, 1, 5, 1,   1, 1, 1, 1, 1};
  const std::size_t rows = widths.size();
  std::vector<std::size_t> offsets(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    offsets[r + 1] = offsets[r] + widths[r];
  }
  const std::size_t total = offsets[rows];
  std::vector<double> truth(total), scales(rows);
  std::vector<std::uint64_t> seeds(rows);
  for (std::size_t i = 0; i < total; ++i) {
    truth[i] = 0.25 * static_cast<double>(i) - 3.0;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    scales[r] = (r == 5) ? 0.0 : 1.75 + 0.5 * static_cast<double>(r % 7);
    seeds[r] = TicketNoiseSeed(/*seed=*/0xFEEDu, /*ticket=*/r * 37 + 1);
  }

  std::vector<double> expected = truth;
  for (std::size_t r = 0; r < rows; ++r) {
    Rng rng(seeds[r]);
    AddLaplaceNoise(expected.data() + offsets[r], widths[r], scales[r], &rng);
  }

  std::vector<double> actual = truth;
  BatchLaplaceNoise(actual.data(), offsets.data(), scales.data(), seeds.data(),
                    rows);
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_TRUE(BitEqual(expected[i], actual[i])) << "value index " << i;
  }
}

/// Runs BatchLaplaceNoise over rows of the given widths and scales and
/// checks every value bit for bit against a fresh Rng(seed) +
/// AddLaplaceNoise per row.
void ExpectBatchNoiseMatchesRng(const std::vector<std::size_t>& widths,
                                const std::vector<double>& scales,
                                std::uint64_t salt) {
  const std::size_t rows = widths.size();
  std::vector<std::size_t> offsets(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    offsets[r + 1] = offsets[r] + widths[r];
  }
  std::vector<double> expected(offsets[rows]);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = 0.5 * static_cast<double>(i % 11) - 2.0;
  }
  std::vector<double> actual = expected;
  std::vector<std::uint64_t> seeds(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    seeds[r] = TicketNoiseSeed(salt, r + 1);
    Rng rng(seeds[r]);
    AddLaplaceNoise(expected.data() + offsets[r], widths[r], scales[r], &rng);
  }
  BatchLaplaceNoise(actual.data(), offsets.data(), scales.data(), seeds.data(),
                    rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = offsets[r]; i < offsets[r + 1]; ++i) {
      ASSERT_TRUE(BitEqual(expected[i], actual[i]))
          << "salt " << salt << ", row " << r << " of " << rows << " (width "
          << widths[r] << ", scale " << scales[r] << "), draw "
          << i - offsets[r];
    }
  }
}

/// The same check with the default scales 0.75 + 0.25 * (r % 5).
void ExpectBatchNoiseMatchesRng(const std::vector<std::size_t>& widths,
                                std::uint64_t salt) {
  std::vector<double> scales(widths.size());
  for (std::size_t r = 0; r < scales.size(); ++r) {
    scales[r] = 0.75 + 0.25 * static_cast<double>(r % 5);
  }
  ExpectBatchNoiseMatchesRng(widths, scales, salt);
}

TEST(BatchKernelsTest, BatchLaplaceNoiseLazyPrefixBoundaries) {
  // The kernel seeds a group's engines only to 156 + (widest row) words and
  // twists each state word only when it is drawn. Widths straddle every
  // boundary of that scheme: the 156-word half state (where the twist
  // switches from reading seed words to reading already-twisted ones), the
  // 312-word state (the regular retwist) and its double. Groups of 1, 7, 8
  // and 9 rows cover a lone lane, a partial group, a full group and a full
  // group plus a tail that reuses lane 0's storage.
  const std::vector<std::size_t> boundary = {0,   1,   8,   155, 156, 157,
                                             311, 312, 313, 624, 625};
  std::uint64_t salt = 1;
  for (const std::size_t group : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9}}) {
    for (std::size_t w = 0; w < boundary.size(); ++w) {
      // Every row at one width: the group prefix is exactly that row's.
      ExpectBatchNoiseMatchesRng(std::vector<std::size_t>(group, boundary[w]),
                                 salt++);
      // Mixed widths: most rows are narrower than the group's widest.
      std::vector<std::size_t> mixed(group);
      for (std::size_t r = 0; r < group; ++r) {
        mixed[r] = boundary[(w + 3 * r) % boundary.size()];
      }
      ExpectBatchNoiseMatchesRng(mixed, salt++);
    }
  }
  // One wide lane among dim-1 neighbours: it alone crosses the half-state
  // and retwist boundaries, while the others draw one word each.
  for (const std::size_t wide : {std::size_t{157}, std::size_t{313},
                                 std::size_t{625}}) {
    ExpectBatchNoiseMatchesRng({1, 1, 1, wide, 1, 1, 1, 1, 1}, salt++);
  }
}

/// Row counts and widths that reach the wide noise kernel's full
/// kWideNoiseRows-row groups (and its fallbacks), checked bit for bit
/// against Rng + AddLaplaceNoise at the active SimdLevel. Counts of 31, 33
/// and 65 leave a partial tail group; widths straddle kWideNoiseMaxWidth
/// (the widest row a wide group takes) and the 155/156 half state; one
/// over-cap row sits inside an otherwise narrow group; every fifth scale
/// is 0.
void ExpectFullGroupNoiseMatchesRng() {
  const std::size_t cap = kWideNoiseMaxWidth;
  std::uint64_t salt = 100;
  for (const std::size_t rows :
       {std::size_t{31}, std::size_t{32}, std::size_t{33}, std::size_t{64},
        std::size_t{65}, std::size_t{1024}}) {
    std::vector<double> scales(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      scales[r] = r % 5 == 3 ? 0.0 : 0.5 + 0.375 * static_cast<double>(r % 7);
    }
    std::vector<std::vector<std::size_t>> cases;
    for (const std::size_t w :
         {std::size_t{1}, cap - 1, cap, cap + 1, std::size_t{155},
          std::size_t{156}}) {
      cases.emplace_back(rows, w);  // Every row at one width.
      std::vector<std::size_t> mixed(rows);  // Most rows narrower.
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t pattern[] = {0, 1, 8, w, 1, 2};
        mixed[r] = pattern[(r * 5 + rows) % 6];
      }
      cases.push_back(mixed);
    }
    // Narrow rows (1 and 8: the columnar mix), then one over-cap row in
    // the first group: just over the cap, and past the retwist.
    std::vector<std::size_t> narrow(rows);
    for (std::size_t r = 0; r < rows; ++r) narrow[r] = r % 4 == 0 ? 8 : 1;
    cases.push_back(narrow);
    for (const std::size_t over : {cap + 1, std::size_t{313}}) {
      cases.push_back(narrow);
      cases.back()[rows / 2 < 17 ? rows / 2 : 17] = over;
    }
    for (const std::vector<std::size_t>& widths : cases) {
      ExpectBatchNoiseMatchesRng(widths, scales, salt++);
    }
  }
}

TEST(BatchKernelsTest, BatchLaplaceNoiseFullGroupsPortable) {
  const SimdLevel restore = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kPortable);
  EXPECT_STREQ(NoiseKernelName(), "scalar");
  ExpectFullGroupNoiseMatchesRng();
  SetSimdLevel(restore);
}

TEST(BatchKernelsTest, BatchLaplaceNoiseFullGroupsWideKernel) {
  const SimdLevel restore = ActiveSimdLevel();
  SetSimdLevel(DetectedSimdLevel());
  if (std::string(NoiseKernelName()) != "avx512x32") {
    SetSimdLevel(restore);
    GTEST_SKIP() << "CPU lacks AVX-512F/DQ: the wide noise kernel is not "
                    "taken here, so this case would only repeat the "
                    "portable one";
  }
  ExpectFullGroupNoiseMatchesRng();
  SetSimdLevel(restore);
}

}  // namespace
}  // namespace pf
