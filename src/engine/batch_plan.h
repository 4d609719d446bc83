// The declarative plan frontend of the columnar batch-serving path. A
// BatchQuerySpec (many QuerySpecs, each over a DataWindow of the record)
// is parsed into an inspectable LOGICAL plan — project (rows to unique
// queries) → window (resolved slices) → clip → noise — then lowered to a
// PHYSICAL plan of kernel nodes: one AggregateStates pass per window, a
// derive node per unique query mapping integer statistics to query truth,
// a ClipScales node, and the per-ticket Laplace noise stage. Explain()
// dumps both levels.
//
//     BatchQuerySpec
//        |  PrepareBatchPlan     prepared-plan cache hit, or: one engine
//        |                       Compile per unique (window, spec), sigma
//        |                       from the AnalysisCache; all-or-nothing
//        v
//     CompiledBatchPlan          logical + physical + compiled plans
//        |  ExecuteBatchPlan     aggregate -> derive -> clip -> noise,
//        |                       SimdLevel-dispatched kernels
//        v
//     BatchReleaseResult         one single-buffer RecordBatch
//
// This is the ONE serving path: Session::Release and Session::Submit are
// 1-row plans through the same compile -> charge -> execute sequence.
//
// Bit-identity contract: every built-in QueryKind's truth is derived from
// one integer aggregation pass in arithmetic that reproduces the compiled
// query functions bit for bit (exact integer sums below 2^53, then the
// same single multiply by 1/T), and row r's noise comes from the per-ticket
// stream TicketNoiseSeed(seed, ticket) — so a columnar batch equals the
// same specs released one by one, in order, exactly, at any thread count
// and SimdLevel. Custom queries are evaluated through their compiled
// std::function against the materialized window.
//
// Batch semantics are ALL-OR-NOTHING, unlike a loop of 1-row Submits: a
// batch that fails to compile, mixes active quilts, or would overrun the
// budget is refused whole, and nothing is charged.
#ifndef PUFFERFISH_ENGINE_BATCH_PLAN_H_
#define PUFFERFISH_ENGINE_BATCH_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/record_batch.h"
#include "common/status.h"
#include "engine/batch_kernels.h"
#include "engine/privacy_engine.h"
#include "engine/query_spec.h"
#include "pufferfish/mechanism.h"

namespace pf {

/// \brief A contiguous window of a (growing) record for sliding-window
/// queries: resolved against the database size at submit time. The engine
/// compiles the query against the WINDOW length (a window query is exactly
/// that much more sensitive per in-window record), while the plan — and
/// hence the Theorem 4.4 active quilt the release is ledgered under — is
/// the full model's, so suffix queries of any width compose in one ledger.
struct DataWindow {
  /// First observation index (ignored when from_end is set).
  std::size_t offset = 0;
  /// Number of observations; 0 means "from offset to the end".
  std::size_t length = 0;
  /// Take the LAST `length` observations (the streaming suffix query).
  bool from_end = false;

  /// The last n observations.
  static DataWindow Last(std::size_t n) {
    DataWindow w;
    w.length = n;
    w.from_end = true;
    return w;
  }
  /// Observations [offset, offset + length).
  static DataWindow Range(std::size_t offset, std::size_t length) {
    DataWindow w;
    w.offset = offset;
    w.length = length;
    return w;
  }
  /// The whole record.
  static DataWindow All() { return DataWindow{}; }

  /// True for All(): the query compiles against the engine's full record
  /// length rather than a window length.
  bool full_record() const { return !from_end && offset == 0 && length == 0; }
};

/// \brief Resolves a DataWindow against a record of `size` observations
/// into a concrete (offset, length) slice; empty or out-of-range windows
/// are refused here, before anything is charged. Shared by the batch-plan
/// compiler and Session's windowed Submit (which copies only the slice).
Result<std::pair<std::size_t, std::size_t>> ResolveDataWindow(
    const DataWindow& window, std::size_t size);

/// One row of a batch: a declarative query over a window of the record.
struct BatchQueryItem {
  QuerySpec spec;
  DataWindow window;  // Defaults to the whole record.
};

/// \brief The declarative input of the columnar path: many queries, one
/// database, one composed Theorem 4.4 charge. Row order is release order —
/// row i gets ticket first_ticket + i, exactly the tickets the same specs
/// submitted scalar, in order, would have drawn.
struct BatchQuerySpec {
  std::vector<BatchQueryItem> items;

  BatchQuerySpec& Add(QuerySpec spec) {
    items.push_back({std::move(spec), DataWindow::All()});
    return *this;
  }
  BatchQuerySpec& Add(QuerySpec spec, const DataWindow& window) {
    items.push_back({std::move(spec), window});
    return *this;
  }
  std::size_t size() const { return items.size(); }
  bool empty() const { return items.empty(); }
};

/// Sentinel index for "no node".
inline constexpr std::size_t kNoNode = std::numeric_limits<std::size_t>::max();

/// \brief The inspectable logical plan: rows projected onto unique
/// (window, query) pairs with resolved window slices.
struct LogicalBatchPlan {
  struct Window {
    /// Resolved slice [offset, offset + length) of the record.
    std::size_t offset = 0;
    std::size_t length = 0;
    /// True for DataWindow::All(): the query compiles against the engine's
    /// full record length and executes over the whole database.
    bool full_record = false;
  };
  struct UniqueQuery {
    /// The declarative spec (carries the fn bodies for custom kinds).
    QuerySpec spec;
    std::size_t window_index = 0;
    /// Output dimension of the compiled query (1 for scalar kinds, k for
    /// histograms).
    std::size_t dim = 1;
    /// Compiled Lipschitz constant (window-length-derived for built-ins).
    double lipschitz = 0.0;
    /// Record length the query was compiled against (the window length, or
    /// the engine's record length for full-record rows) — the T in the
    /// built-in 1/T factors.
    std::size_t compile_length = 0;
    /// Rows mapping to this unique query.
    std::size_t num_rows = 0;
  };

  std::vector<Window> windows;
  /// Unique (window, spec) pairs in first-appearance order.
  std::vector<UniqueQuery> unique;
  /// Row i releases unique[row_to_unique[i]] under ticket first + i.
  std::vector<std::size_t> row_to_unique;
  /// Sum of row dims — the RecordBatch's flat value-buffer length.
  std::size_t total_values = 0;
  /// Database size the windows were resolved against.
  std::size_t data_size = 0;
};

/// \brief The physical plan: kernel nodes the executor runs.
struct PhysicalBatchPlan {
  /// How a unique query's truth is produced from kernel outputs.
  enum class DeriveOp {
    kSum,                 ///< double(sum)
    kMean,                ///< double(sum) * inv
    kStateFrequency,      ///< double(match_counts[match_index]) * inv
    kCountHistogram,      ///< double(counts[s]), zeros when out of range
    kFrequencyHistogram,  ///< double(counts[s]) * inv, zeros when OOR
    kEvaluate,            ///< compiled fn over the materialized window
  };
  struct AggregateNode {
    std::size_t window_index = 0;
    AggregateSpec spec;
  };
  /// derives[i] produces unique[i]'s truth (index-aligned with
  /// LogicalBatchPlan::unique).
  struct DeriveNode {
    DeriveOp op = DeriveOp::kEvaluate;
    /// Index into `aggregates` (kNoNode for kEvaluate).
    std::size_t aggregate_index = kNoNode;
    /// Index into the aggregate's match_states (kStateFrequency only).
    std::size_t match_index = 0;
    /// 1 / compile_length for the 1/T kinds; 0 otherwise.
    double inv = 0.0;
  };

  std::vector<AggregateNode> aggregates;
  std::vector<DeriveNode> derives;
};

/// \brief A fully lowered batch: logical plan, physical plan, and the
/// per-unique compiled (query, plan) pairs (index-aligned with
/// logical.unique). Immutable once compiled; safe to execute from any
/// thread.
struct CompiledBatchPlan {
  LogicalBatchPlan logical;
  PhysicalBatchPlan physical;
  std::vector<PrivacyEngine::CompiledQuery> compiled;

  std::size_t num_rows() const { return logical.row_to_unique.size(); }

  /// Human-readable dump of both plan levels (rows, windows, unique
  /// queries with epsilon/Lipschitz/sigma, kernel nodes, and the active
  /// SimdLevel the kernels would dispatch to).
  std::string Explain() const;
};

/// \brief The released batch: one single-buffer RecordBatch whose columns
/// carry the noisy values plus per-row accounting (epsilon, sigma, applied
/// noise scale, ticket), and the mechanism that served it.
struct BatchReleaseResult {
  RecordBatch batch;
  MechanismKind mechanism = MechanismKind::kLaplaceDp;
};

/// \brief Plans `batch` for a database of `data_size` observations: the one
/// planning entry point of the serving path (Session::Release, both Submit
/// overloads and SubmitColumnar call it). Returns the plan shared with the
/// engine's prepared-plan cache, immutable and safe to execute from any
/// thread.
///
/// A miss parses, resolves, dedupes, compiles, and lowers the batch against
/// the engine's model. All-or-nothing: any row that fails to resolve or
/// compile refuses the whole batch (with the row index chained into the
/// error). It makes one PrivacyEngine::Compile per unique (window, spec),
/// not per row, so every unique query's plan is an AnalysisCache lookup,
/// and honors `request` exactly like Compile.
///
/// A hit skips all of that. The cache is keyed by a fingerprint of every
/// row's (spec, window) plus `data_size`; a candidate is served only after
/// each row's window, resolved against `data_size`, equals its planned
/// window and its spec has the planned unique query's compiled shape (the
/// fields QuerySpec::CacheKey() encodes — custom queries are identified by
/// their name). A plan is stored on the second sighting of its shape
/// within one model generation, invalidated by AppendObservations /
/// SetRecordLength, and never stored when its compile overlapped one. The
/// cache evicts FIFO past EngineOptions::cache_capacity plans or past a
/// fixed budget of resident rows (the sum of num_rows() over stored
/// plans), whichever comes first.
///
/// A stored plan is shared: its custom query bodies are called by every
/// session that is served it, from any thread, at the same time (see
/// QuerySpec::scalar_fn).
///
/// An empty batch and an already-expired deadline are refused before the
/// lookup.
Result<std::shared_ptr<const CompiledBatchPlan>> PrepareBatchPlan(
    PrivacyEngine* engine, const BatchQuerySpec& batch, std::size_t data_size,
    const RequestOptions& request = {});

/// \brief PrepareBatchPlan, returning a copy of the plan by value (for
/// callers that inspect or keep their own plan).
Result<CompiledBatchPlan> CompileBatchPlan(PrivacyEngine* engine,
                                           const BatchQuerySpec& batch,
                                           std::size_t data_size,
                                           const RequestOptions& request = {});

/// \brief Runs the physical plan over `data`: aggregate → derive → clip →
/// noise, with row i released under ticket `first_ticket + i` from the
/// (seed, ticket) noise streams. The one execute body of the serving path:
/// the caller has already charged the ledger for every row (every Session
/// release does, a 1-row plan for Release/Submit); a post-charge failure
/// (a custom query violating its declared dimension) surfaces as a typed
/// Status with the charge standing.
Result<BatchReleaseResult> ExecuteBatchPlan(const CompiledBatchPlan& plan,
                                            const StateSequence& data,
                                            std::uint64_t seed,
                                            std::uint64_t first_ticket);

}  // namespace pf

#endif  // PUFFERFISH_ENGINE_BATCH_PLAN_H_
