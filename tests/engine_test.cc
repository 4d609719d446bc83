// PrivacyEngine: mechanism-selection policy, declarative query compilation,
// and the plan cache behind Compile.
#include "engine/engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/topologies.h"
#include "graphical/markov_chain.h"

namespace pf {
namespace {

MarkovChain TestChain(double p0, double p1) {
  return MarkovChain::Make({0.5, 0.5}, Matrix{{p0, 1.0 - p0}, {1.0 - p1, p1}})
      .ValueOrDie();
}

ModelSpec ShortChainModel(std::size_t length = 100) {
  return ModelSpec::ChainClass({TestChain(0.8, 0.7)}, length);
}

// ------------------------------------------------------- selection policy --

TEST(SelectMechanismTest, ShortChainsUseExactLongChainsUseApprox) {
  EngineOptions options;
  options.approx_length_cutoff = 1000;
  EXPECT_EQ(SelectMechanism(ShortChainModel(1000), options).ValueOrDie(),
            MechanismKind::kMqmExact);
  EXPECT_EQ(SelectMechanism(ShortChainModel(1001), options).ValueOrDie(),
            MechanismKind::kMqmApprox);
}

TEST(SelectMechanismTest, PolicyByModelKind) {
  const EngineOptions options;
  EXPECT_EQ(SelectMechanism(
                ModelSpec::ChainClassFreeInitial(
                    {Matrix{{0.8, 0.2}, {0.3, 0.7}}}, 50),
                options)
                .ValueOrDie(),
            MechanismKind::kMqmExact);
  ChainClassSummary summary;
  summary.pi_min = 0.3;
  summary.eigengap = 0.5;
  EXPECT_EQ(SelectMechanism(ModelSpec::ChainSummary(summary, 2, 50), options)
                .ValueOrDie(),
            MechanismKind::kMqmApprox);
  EXPECT_EQ(SelectMechanism(ModelSpec::Sensitivity(1.0), options).ValueOrDie(),
            MechanismKind::kLaplaceDp);
  EXPECT_EQ(
      SelectMechanism(ModelSpec::GroupSensitivity(2.0), options).ValueOrDie(),
      MechanismKind::kGroupDp);
}

TEST(SelectMechanismTest, OverrideHonoredWhenCompatible) {
  EngineOptions options;
  options.mechanism = MechanismKind::kMqmApprox;
  EXPECT_EQ(SelectMechanism(ShortChainModel(), options).ValueOrDie(),
            MechanismKind::kMqmApprox);
  options.mechanism = MechanismKind::kGk16;
  EXPECT_EQ(SelectMechanism(ShortChainModel(), options).ValueOrDie(),
            MechanismKind::kGk16);
}

TEST(SelectMechanismTest, IncompatibleOverrideIsInvalidArgument) {
  EngineOptions options;
  options.mechanism = MechanismKind::kWasserstein;
  const Result<MechanismKind> r = SelectMechanism(ShortChainModel(), options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SelectMechanismTest, EmptyModelRejected) {
  EXPECT_FALSE(
      SelectMechanism(ModelSpec::ChainClass({}, 100), EngineOptions{}).ok());
  EXPECT_FALSE(
      SelectMechanism(ModelSpec::OutputPairs({}), EngineOptions{}).ok());
}

// ---------------------------------------------------------- query compile --

TEST(QuerySpecTest, BuiltinLipschitzConstantsFollowTheModel) {
  const std::size_t k = 3;
  const std::size_t length = 50;
  EXPECT_DOUBLE_EQ(
      CompileQuerySpec(QuerySpec::Sum(), k, length).ValueOrDie().lipschitz,
      2.0);  // k - 1.
  EXPECT_DOUBLE_EQ(
      CompileQuerySpec(QuerySpec::Mean(), k, length).ValueOrDie().lipschitz,
      2.0 / 50.0);
  EXPECT_DOUBLE_EQ(CompileQuerySpec(QuerySpec::StateFrequency(1), k, length)
                       .ValueOrDie()
                       .lipschitz,
                   1.0 / 50.0);
  const VectorQuery count =
      CompileQuerySpec(QuerySpec::CountHistogram(), k, length).ValueOrDie();
  EXPECT_DOUBLE_EQ(count.lipschitz, 2.0);
  EXPECT_EQ(count.dim, k);
  const VectorQuery freq =
      CompileQuerySpec(QuerySpec::FrequencyHistogram(), k, length).ValueOrDie();
  EXPECT_DOUBLE_EQ(freq.lipschitz, 2.0 / 50.0);
  EXPECT_EQ(freq.dim, k);
}

TEST(QuerySpecTest, CompiledQueriesEvaluate) {
  const StateSequence data{0, 1, 2, 1};
  const VectorQuery mean =
      CompileQuerySpec(QuerySpec::Mean(), 3, 4).ValueOrDie();
  EXPECT_DOUBLE_EQ(mean.fn(data)[0], 1.0);
  const VectorQuery freq =
      CompileQuerySpec(QuerySpec::StateFrequency(1), 3, 4).ValueOrDie();
  EXPECT_DOUBLE_EQ(freq.fn(data)[0], 0.5);
}

TEST(QuerySpecTest, CustomQueriesValidated) {
  // No body.
  QuerySpec broken;
  broken.kind = QueryKind::kCustomScalar;
  broken.name = "broken";
  EXPECT_EQ(CompileQuerySpec(broken, 2, 10).status().code(),
            StatusCode::kInvalidArgument);
  // No name (custom queries are identified by it).
  const QuerySpec anonymous = QuerySpec::CustomScalar(
      "", [](const StateSequence&) { return 0.0; }, 1.0);
  EXPECT_EQ(CompileQuerySpec(anonymous, 2, 10).status().code(),
            StatusCode::kInvalidArgument);
  // Well-formed.
  const QuerySpec ok = QuerySpec::CustomScalar(
      "first", [](const StateSequence& s) { return double(s[0]); }, 1.0);
  EXPECT_TRUE(CompileQuerySpec(ok, 2, 10).ok());
}

TEST(QuerySpecTest, NonPositiveEpsilonRejected) {
  EXPECT_FALSE(QuerySpec::Sum(0.0).Validate().ok());
  EXPECT_FALSE(QuerySpec::Sum(-1.0).Validate().ok());
  EXPECT_FALSE(QuerySpec::Sum(std::nan("")).Validate().ok());
}

TEST(QuerySpecTest, StatefulKindsNeedAModelWithStatesAndLength) {
  // num_states == 0: output-pair / sensitivity models.
  EXPECT_EQ(CompileQuerySpec(QuerySpec::FrequencyHistogram(), 0, 0)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(CompileQuerySpec(QuerySpec::Mean(), 0, 0).status().code(),
            StatusCode::kFailedPrecondition);
  // Sum degrades to the raw L = 1 sum (sensitivity lives in the plan).
  const VectorQuery sum = CompileQuerySpec(QuerySpec::Sum(), 0, 0).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum.lipschitz, 1.0);
  EXPECT_DOUBLE_EQ(sum.fn({1, 0, 1, 1})[0], 3.0);
}

// ------------------------------------------------------------- the engine --

TEST(PrivacyEngineTest, RepeatedCompilesArePlanCacheHits) {
  auto engine = PrivacyEngine::Create(ShortChainModel()).ValueOrDie();
  const auto first = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  const auto again = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  EXPECT_EQ(first.plan.get(), again.plan.get());
  // The repeat is served by the AnalysisCache: no second analysis.
  EXPECT_EQ(engine->cache_stats().misses, 1u);

  // A different query at the same epsilon shares the plan via the
  // AnalysisCache (one analysis per (model, epsilon)); with the repeat,
  // that is two hits.
  const auto other = engine->Compile(QuerySpec::Sum(1.0)).ValueOrDie();
  EXPECT_EQ(other.plan.get(), first.plan.get());
  EXPECT_EQ(engine->cache_stats().misses, 1u);
  EXPECT_EQ(engine->cache_stats().hits, 2u);

  // A new epsilon analyzes once more.
  const auto eps2 = engine->Compile(QuerySpec::Mean(2.0)).ValueOrDie();
  EXPECT_NE(eps2.plan.get(), first.plan.get());
  EXPECT_EQ(engine->cache_stats().misses, 2u);
}

TEST(PrivacyEngineTest, EngineReportsModelAndMechanism) {
  auto engine = PrivacyEngine::Create(ShortChainModel(100)).ValueOrDie();
  EXPECT_EQ(engine->mechanism_kind(), MechanismKind::kMqmExact);
  EXPECT_EQ(engine->num_states(), 2u);
  EXPECT_EQ(engine->record_length(), 100u);
  EXPECT_GE(engine->num_threads(), 1u);
}

TEST(PrivacyEngineTest, OverrideSelectsTheMechanism) {
  EngineOptions options;
  options.mechanism = MechanismKind::kMqmApprox;
  auto engine =
      PrivacyEngine::Create(ShortChainModel(100), options).ValueOrDie();
  EXPECT_EQ(engine->mechanism_kind(), MechanismKind::kMqmApprox);
  // MQMApprox is never less noisy than MQMExact on the same class.
  auto exact_engine = PrivacyEngine::Create(ShortChainModel(100)).ValueOrDie();
  const double approx_sigma =
      engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  const double exact_sigma =
      exact_engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie().plan->sigma;
  EXPECT_LE(exact_sigma, approx_sigma + 1e-9);
}

TEST(PrivacyEngineTest, PlanCacheCapacityBoundsCompile) {
  EngineOptions options;
  options.cache_capacity = 2;
  auto engine =
      PrivacyEngine::Create(ModelSpec::Sensitivity(1.0), options).ValueOrDie();
  (void)engine->Compile(QuerySpec::Sum(1.0)).ValueOrDie();
  (void)engine->Compile(QuerySpec::Sum(2.0)).ValueOrDie();
  (void)engine->Compile(QuerySpec::Sum(3.0)).ValueOrDie();  // Evicts eps=1.
  EXPECT_EQ(engine->cache_stats().misses, 3u);
  // eps=1 was evicted from the plan cache (capacity 2): recompiling
  // re-analyzes, since nothing else in the engine pins the old plan.
  (void)engine->Compile(QuerySpec::Sum(1.0)).ValueOrDie();
  EXPECT_EQ(engine->cache_stats().misses, 4u);
  // eps=3 is still resident in the plan cache (no new analysis).
  (void)engine->Compile(QuerySpec::Sum(3.0)).ValueOrDie();
  EXPECT_EQ(engine->cache_stats().misses, 4u);
}

TEST(PrivacyEngineTest, SensitivityModelServesSumOnly) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::Sensitivity(1.0)).ValueOrDie();
  EXPECT_TRUE(engine->Compile(QuerySpec::Sum(1.0)).ok());
  EXPECT_EQ(engine->Compile(QuerySpec::FrequencyHistogram(1.0)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PrivacyEngineTest, AnalyzeStatsSurfaceDedupAndLadder) {
  EngineOptions options;
  options.exact_max_nearby = 8;
  options.allow_stationary_shortcut = false;
  auto engine =
      PrivacyEngine::Create(ShortChainModel(2000), options).ValueOrDie();
  ASSERT_EQ(engine->mechanism_kind(), MechanismKind::kMqmExact);
  const PrivacyEngine::AnalysisStats stats =
      engine->AnalyzeStats(1.0).ValueOrDie();
  EXPECT_EQ(stats.total_nodes, 2000u);
  EXPECT_GT(stats.scored_nodes, 0u);
  EXPECT_LT(stats.scored_nodes, stats.total_nodes);
  EXPECT_GT(stats.dedup_ratio, 1.0);
  EXPECT_GT(stats.memory.peak_bytes, 0u);
  // Served from the plan cache: a second call must not re-analyze.
  const auto before = engine->cache_stats();
  EXPECT_TRUE(engine->AnalyzeStats(1.0).ok());
  EXPECT_EQ(engine->cache_stats().misses, before.misses);
}

// ------------------------------------------------- streaming / appends --

TEST(PrivacyEngineTest, AppendObservationsExtendsCachedAnalyses) {
  EngineOptions options;
  options.exact_max_nearby = 10;
  auto engine =
      PrivacyEngine::Create(ShortChainModel(100), options).ValueOrDie();
  const auto at100 = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  EXPECT_EQ(engine->cache_stats().extensions, 0u);

  ASSERT_TRUE(engine->AppendObservations(25).ok());
  EXPECT_EQ(engine->record_length(), 125u);
  const auto at125 = engine->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  // The plan was EXTENDED from the cached T=100 analysis, not re-analyzed.
  EXPECT_EQ(engine->cache_stats().extensions, 1u);
  // The compiled query was invalidated: its Lipschitz constant follows the
  // new length ((k-1)/T for the mean).
  EXPECT_DOUBLE_EQ(at100.query.lipschitz, 1.0 / 100.0);
  EXPECT_DOUBLE_EQ(at125.query.lipschitz, 1.0 / 125.0);

  // And the extended plan is bit-identical to a cold engine built at 125.
  auto cold = PrivacyEngine::Create(ShortChainModel(125), options).ValueOrDie();
  const auto cold_plan = cold->Compile(QuerySpec::Mean(1.0)).ValueOrDie();
  EXPECT_EQ(at125.plan->sigma, cold_plan.plan->sigma);
  EXPECT_EQ(at125.plan->chain.worst_node, cold_plan.plan->chain.worst_node);
  EXPECT_EQ(at125.plan->chain.active_quilt.quilt,
            cold_plan.plan->chain.active_quilt.quilt);
  EXPECT_EQ(at125.plan->chain.scored_nodes,
            cold_plan.plan->chain.scored_nodes);
}

TEST(PrivacyEngineTest, NumStatesIsStableAcrossModelMutations) {
  // Regression: Compile used to read model_.num_states outside model_mutex_
  // — formally a data race against AppendObservations/SetRecordLength even
  // though those never change the state count. The fix snapshots the
  // (immutable-after-Create) count into the const num_states_ member; this
  // pins the accessor's value across every model mutation path so the
  // snapshot can never drift from the model.
  auto engine = PrivacyEngine::Create(ShortChainModel(100)).ValueOrDie();
  const std::size_t states = engine->num_states();
  EXPECT_GT(states, 0u);

  ASSERT_TRUE(engine->AppendObservations(25).ok());
  EXPECT_EQ(engine->num_states(), states);

  ASSERT_TRUE(engine->SetRecordLength(40).ok());
  EXPECT_EQ(engine->num_states(), states);

  // Histogram validation (which consumes the snapshot) still enforces the
  // true state count after the mutations.
  EXPECT_TRUE(engine->Compile(QuerySpec::Mean(1.0)).ok());
}

TEST(PrivacyEngineTest, AppendCanCrossThePolicyCutoff) {
  EngineOptions options;
  options.approx_length_cutoff = 150;
  auto engine =
      PrivacyEngine::Create(ShortChainModel(100), options).ValueOrDie();
  EXPECT_EQ(engine->mechanism_kind(), MechanismKind::kMqmExact);
  ASSERT_TRUE(engine->AppendObservations(100).ok());
  // Past the cutoff the policy re-selects MQMApprox (length-independent
  // analysis); serving keeps working.
  EXPECT_EQ(engine->mechanism_kind(), MechanismKind::kMqmApprox);
  EXPECT_TRUE(engine->Compile(QuerySpec::Mean(1.0)).ok());
}

TEST(PrivacyEngineTest, SetRecordLengthValidation) {
  auto engine = PrivacyEngine::Create(ShortChainModel(100)).ValueOrDie();
  EXPECT_EQ(engine->SetRecordLength(0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine->SetRecordLength(100).ok());  // No-op.
  EXPECT_TRUE(engine->SetRecordLength(40).ok());   // Shrink re-analyzes cold.
  EXPECT_EQ(engine->record_length(), 40u);
  EXPECT_TRUE(engine->Compile(QuerySpec::Mean(1.0)).ok());

  // Models without a record-length dimension refuse the hot-swap.
  auto laplace = PrivacyEngine::Create(ModelSpec::Sensitivity(1.0)).ValueOrDie();
  EXPECT_EQ(laplace->AppendObservations(5).code(), StatusCode::kNotSupported);
}

TEST(PrivacyEngineTest, NonChainMechanismsReportZeroStats) {
  auto engine =
      PrivacyEngine::Create(ModelSpec::Sensitivity(1.0)).ValueOrDie();
  const PrivacyEngine::AnalysisStats stats =
      engine->AnalyzeStats(1.0).ValueOrDie();
  EXPECT_EQ(stats.total_nodes, 0u);
  EXPECT_EQ(stats.scored_nodes, 0u);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio, 1.0);
}

TEST(PrivacyEngineTest, LargeStructuredNetworksRouteToMqmGeneral) {
  // 100 binary nodes: far past any enumeration guard, but treewidth 1 —
  // the policy admits it and the structured analysis serves it.
  auto model = ModelSpec::NetworkClass(
      {TreeNetwork(100, 2, BinaryRoot(0.5), BinaryNoisyCopyCpt(0.25))
           .ValueOrDie()});
  EXPECT_EQ(SelectMechanism(model, EngineOptions{}).ValueOrDie(),
            MechanismKind::kMqmGeneral);
  auto engine = PrivacyEngine::Create(std::move(model)).ValueOrDie();
  EXPECT_EQ(engine->mechanism_kind(), MechanismKind::kMqmGeneral);
  EXPECT_EQ(engine->record_length(), 100u);

  const PrivacyEngine::AnalysisStats stats =
      engine->AnalyzeStats(1.0).ValueOrDie();
  EXPECT_EQ(stats.total_nodes, 100u);
  EXPECT_LT(stats.scored_nodes, stats.total_nodes);
  EXPECT_GT(stats.dedup_ratio, 1.0);
  EXPECT_EQ(stats.treewidth_bound, 1u);
  EXPECT_GE(stats.induced_width, 1u);
  EXPECT_GT(stats.memory.peak_bytes, 0u);

  // The analysis is cached: serving a release re-uses the plan.
  SessionOptions session_options;
  session_options.seed = 7;
  auto session = engine->CreateSession(session_options);
  StateSequence data(100, 1);
  const ReleaseResult release =
      session->Release(QuerySpec::Sum(1.0), data).ValueOrDie();
  EXPECT_TRUE(std::isfinite(release.value[0]));
  EXPECT_GT(engine->cache_stats().hits, 0u);
}

TEST(PrivacyEngineTest, NetworkWidthCutoffRefusesDenseModels) {
  // An 18-node collider: the child's 17 parents all marry, a 17-clique —
  // min-fill width 17 > kNetworkWidthCutoff (16).
  BayesianNetwork dense;
  Rng rng(3);
  ASSERT_TRUE(dense.AddNode("p0", 2, {}, Matrix{{0.5, 0.5}}).ok());
  std::vector<int> parents = {0};
  for (int i = 1; i < 17; ++i) {
    ASSERT_TRUE(dense.AddNode("p" + std::to_string(i), 2, {},
                              Matrix{{0.4, 0.6}}).ok());
    parents.push_back(i);
  }
  Matrix cpt(1u << 17, 2);
  for (std::size_t r = 0; r < cpt.rows(); ++r) {
    cpt(r, 0) = 0.25;
    cpt(r, 1) = 0.75;
  }
  ASSERT_TRUE(dense.AddNode("child", 2, parents, cpt).ok());

  const auto model = ModelSpec::NetworkClass({dense});
  const Result<MechanismKind> refused = SelectMechanism(model, EngineOptions{});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // An explicit override bypasses the screen entirely.
  EngineOptions forced;
  forced.mechanism = MechanismKind::kMqmGeneral;
  EXPECT_EQ(SelectMechanism(model, forced).ValueOrDie(),
            MechanismKind::kMqmGeneral);
}

}  // namespace
}  // namespace pf
