// Internals of the prepared-plan cache behind PrepareBatchPlan
// (engine/batch_plan.h): the key, the check that decides every hit, and
// the engine's cache entry points. Not part of the serving API; included
// by batch_plan.cc, privacy_engine.cc and the cache's tests and benchmark.
#ifndef PUFFERFISH_ENGINE_BATCH_PLAN_INTERNAL_H_
#define PUFFERFISH_ENGINE_BATCH_PLAN_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "engine/batch_plan.h"
#include "engine/privacy_engine.h"

namespace pf {

/// \brief The prepared-plan cache key of `batch` over a database of
/// `data_size` observations: a fingerprint of every row's compiled-shape
/// fields (QuerySpec::CacheKey()'s), its raw window and its row index.
/// Never 0. Like any hash it only finds candidates; MatchesPreparedPlan
/// decides every hit.
std::uint64_t BatchShapeFingerprint(const BatchQuerySpec& batch,
                                    std::size_t data_size);

/// \brief True iff compiling `batch` for a database of `data_size`
/// observations would produce `plan`: same row count and database size,
/// and each row's resolved window and compiled shape equal to those of the
/// unique query the plan maps the row to.
bool MatchesPreparedPlan(const CompiledBatchPlan& plan,
                         const BatchQuerySpec& batch, std::size_t data_size);

/// \brief The engine's prepared-plan cache, as PrepareBatchPlan reaches it
/// (and the cache's tests, which plant a plan under a foreign key to stand
/// in for a fingerprint collision).
struct PreparedPlanAccess {
  /// Resident-row budget of the cache: the sum of num_rows() over stored
  /// plans never exceeds it, and a larger plan is never stored.
  static constexpr std::size_t kRowBudget = PrivacyEngine::kPreparedPlanRows;

  /// See PrivacyEngine::FindPreparedPlan.
  static std::shared_ptr<const CompiledBatchPlan> Find(
      PrivacyEngine* engine, std::uint64_t shape, std::uint64_t* generation,
      bool* store) {
    return engine->FindPreparedPlan(shape, generation, store);
  }
  /// See PrivacyEngine::StorePreparedPlan.
  static void Store(PrivacyEngine* engine, std::uint64_t shape,
                    std::uint64_t generation,
                    std::shared_ptr<const CompiledBatchPlan> plan) {
    engine->StorePreparedPlan(shape, generation, std::move(plan));
  }
};

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_BATCH_PLAN_INTERNAL_H_
