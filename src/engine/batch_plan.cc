#include "engine/batch_plan.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/fingerprint.h"
#include "engine/batch_plan_internal.h"
#include "engine/privacy_engine.h"

namespace pf {

namespace {

const char* DeriveOpName(PhysicalBatchPlan::DeriveOp op) {
  switch (op) {
    case PhysicalBatchPlan::DeriveOp::kSum: return "sum";
    case PhysicalBatchPlan::DeriveOp::kMean: return "mean";
    case PhysicalBatchPlan::DeriveOp::kStateFrequency: return "match";
    case PhysicalBatchPlan::DeriveOp::kCountHistogram: return "hist";
    case PhysicalBatchPlan::DeriveOp::kFrequencyHistogram: return "hist*inv";
    case PhysicalBatchPlan::DeriveOp::kEvaluate: return "evaluate";
  }
  return "?";
}

/// Compact double formatting for Explain (std::to_string pads zeros).
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// CacheKey() equality without the string: the same fields CacheKey()
/// encodes — kind, state, epsilon bit pattern, plus lipschitz/dim/name for
/// custom kinds — compared directly. CompiledShapeHash hashes the same
/// fields; a field added here goes there too.
bool SameCompiledShape(const QuerySpec& a, const QuerySpec& b) {
  if (a.kind != b.kind || a.state != b.state ||
      DoubleBits(a.epsilon) != DoubleBits(b.epsilon)) {
    return false;
  }
  if (a.kind == QueryKind::kCustomScalar || a.kind == QueryKind::kCustomVector) {
    return DoubleBits(a.lipschitz) == DoubleBits(b.lipschitz) &&
           a.dim == b.dim && a.name == b.name;
  }
  return true;
}

/// One multiply-xorshift round. A row hashed in independent rounds of
/// this pipelines with the next row's: no chain runs through a batch.
inline std::uint64_t MulXorShift(std::uint64_t x) {
  x *= 0xBF58476D1CE4E5B9u;
  return x ^ (x >> 31);
}

/// Hash of the fields SameCompiledShape compares, seeded with `salt` (what
/// else the caller keys on). With SameCompiledShape, the one place that
/// lists those fields. Purely an accelerator: every user resolves
/// collisions by field comparison, and the hash never reaches a released
/// value or a plan's ordering.
std::uint64_t CompiledShapeHash(const QuerySpec& spec, std::uint64_t salt) {
  const std::uint64_t tags =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(spec.state))
       << 8) |
      static_cast<std::uint64_t>(spec.kind);
  std::uint64_t h = MulXorShift(DoubleBits(spec.epsilon) ^ salt) +
                    MulXorShift(tags + 0x9E3779B97F4A7C15u);
  if (spec.kind == QueryKind::kCustomScalar ||
      spec.kind == QueryKind::kCustomVector) {
    h = MulXorShift(h ^ DoubleBits(spec.lipschitz)) +
        MulXorShift(static_cast<std::uint64_t>(spec.dim) ^
                    std::hash<std::string>{}(spec.name));
  }
  return MulXorShift(h);
}

/// The slice [*offset, *offset + *length) that `window` selects in a record
/// of `size` observations; false when the window is empty or does not fit.
bool WindowSlice(const DataWindow& window, std::size_t size,
                 std::size_t* offset, std::size_t* length) {
  if (window.from_end) {
    if (window.length == 0 || window.length > size) return false;
    *offset = size - window.length;
    *length = window.length;
    return true;
  }
  if (window.offset >= size) return false;
  *offset = window.offset;
  *length = window.length == 0 ? size - window.offset : window.length;
  // Overflow-safe form of offset + length <= size (offset < size here).
  return *length <= size - window.offset;
}

}  // namespace

// Each row is hashed on its own, its row index and raw window in the salt,
// and the row hashes summed; the sum is then mixed with `data_size`.
std::uint64_t BatchShapeFingerprint(const BatchQuerySpec& batch,
                                    std::size_t data_size) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    const DataWindow& window = batch.items[i].window;
    const std::uint64_t salt =
        (i * 0x9E3779B97F4A7C15u) ^ (window.offset * 0x94D049BB133111EBu) ^
        (window.length * 0xD6E8FEB86659FD93u) ^
        (window.from_end ? 0xA0761D6478BD642Fu : 0);
    sum += CompiledShapeHash(batch.items[i].spec, salt);
  }
  return EnsureNonZeroFingerprint(
      SplitMix64(sum ^ SplitMix64(static_cast<std::uint64_t>(data_size))));
}

Result<std::pair<std::size_t, std::size_t>> ResolveDataWindow(
    const DataWindow& window, std::size_t size) {
  std::size_t offset = 0;
  std::size_t length = 0;
  if (WindowSlice(window, size, &offset, &length)) {
    return std::make_pair(offset, length);
  }
  if (window.from_end) {
    return Status::InvalidArgument(
        "suffix window of " + std::to_string(window.length) +
        " observations does not fit a record of " + std::to_string(size));
  }
  if (window.offset >= size) {
    return Status::InvalidArgument(
        "window offset " + std::to_string(window.offset) +
        " is outside the record of " + std::to_string(size));
  }
  return Status::InvalidArgument(
      "window [" + std::to_string(offset) + ", " +
      std::to_string(offset + length) + ") exceeds the record of " +
      std::to_string(size));
}

// Row by row the same resolved window and compiled shape as the unique
// query the plan maps the row to; row order then fixes the dedupe, the
// window order and the lowering.
bool MatchesPreparedPlan(const CompiledBatchPlan& plan,
                         const BatchQuerySpec& batch, std::size_t data_size) {
  const LogicalBatchPlan& lg = plan.logical;
  if (lg.data_size != data_size || lg.row_to_unique.size() != batch.size()) {
    return false;
  }
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    const BatchQueryItem& item = batch.items[i];
    const LogicalBatchPlan::UniqueQuery& uq = lg.unique[lg.row_to_unique[i]];
    const LogicalBatchPlan::Window& win = lg.windows[uq.window_index];
    const bool full = item.window.full_record();
    if (win.full_record != full) return false;
    std::size_t offset = 0;
    std::size_t length = 0;
    if (!full && (!WindowSlice(item.window, data_size, &offset, &length) ||
                  offset != win.offset || length != win.length)) {
      return false;
    }
    if (!SameCompiledShape(uq.spec, item.spec)) return false;
  }
  return true;
}

namespace {

/// The miss path of PrepareBatchPlan: parse, resolve, dedupe, compile and
/// lower `batch` (non-empty, deadline not yet expired).
Result<CompiledBatchPlan> CompileColdBatchPlan(PrivacyEngine* engine,
                                               const BatchQuerySpec& batch,
                                               std::size_t data_size,
                                               const RequestOptions& request) {
  CompiledBatchPlan plan;
  LogicalBatchPlan& lg = plan.logical;
  lg.data_size = data_size;
  lg.row_to_unique.reserve(batch.size());

  // The 1/T factors of full-record built-ins come from the engine's record
  // length; snapshot it and verify below that no concurrent append slid it
  // under the compiles (a torn batch would mix constants from two model
  // epochs and match no row-by-row run). Windowed rows take T from the
  // window, so only plans with a full-record row need the check.
  const std::size_t model_length = engine->record_length();

  // Parse + project: resolve windows, dedupe rows onto unique (window,
  // spec) pairs, compile each unique once through the engine's cache.
  // Dedupe hashes the same fields CacheKey() encodes but compares them
  // directly (bucketed, collision-checked) — no per-row string build on
  // the serving hot path; context strings exist only on error returns.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> unique_buckets;
  bool any_full_record = false;
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    const BatchQueryItem& item = batch.items[i];

    const bool full = item.window.full_record();
    std::size_t offset = 0;
    std::size_t length = data_size;
    if (!full) {
      Result<std::pair<std::size_t, std::size_t>> span =
          ResolveDataWindow(item.window, data_size);
      if (!span.ok()) {
        return span.status().WithContext("batch row " + std::to_string(i));
      }
      offset = span.value().first;
      length = span.value().second;
    }
    std::size_t window_index = lg.windows.size();
    for (std::size_t w = 0; w < lg.windows.size(); ++w) {
      if (lg.windows[w].offset == offset && lg.windows[w].length == length &&
          lg.windows[w].full_record == full) {
        window_index = w;
        break;
      }
    }
    if (window_index == lg.windows.size()) {
      lg.windows.push_back({offset, length, full});
    }
    any_full_record = any_full_record || full;

    std::vector<std::size_t>& bucket =
        unique_buckets[CompiledShapeHash(item.spec, window_index)];
    std::size_t u = lg.unique.size();
    for (const std::size_t candidate : bucket) {
      if (lg.unique[candidate].window_index == window_index &&
          SameCompiledShape(lg.unique[candidate].spec, item.spec)) {
        u = candidate;
        break;
      }
    }
    if (u == lg.unique.size()) {
      // Full-record rows compile with window_length = 0 (the engine's
      // record length); windowed rows pass the resolved length.
      Result<PrivacyEngine::CompiledQuery> compiled =
          engine->Compile(item.spec, full ? 0 : length, request);
      if (!compiled.ok()) {
        return compiled.status().WithContext("batch row " + std::to_string(i));
      }
      LogicalBatchPlan::UniqueQuery uq;
      uq.spec = item.spec;
      uq.window_index = window_index;
      uq.dim = compiled.value().query.dim;
      uq.lipschitz = compiled.value().query.lipschitz;
      uq.compile_length = full ? model_length : length;
      bucket.push_back(u);
      lg.unique.push_back(std::move(uq));
      plan.compiled.push_back(std::move(compiled).value());
    }
    lg.row_to_unique.push_back(u);
    ++lg.unique[u].num_rows;
    lg.total_values += lg.unique[u].dim;
  }

  if (any_full_record && engine->record_length() != model_length) {
    return Status::Unavailable(
        "model record length changed while the batch was compiling; retry "
        "(nothing was charged)");
  }

  // Lower: one aggregation pass per window that any built-in row needs,
  // then a derive node per unique query.
  PhysicalBatchPlan& ph = plan.physical;
  std::vector<std::size_t> window_to_aggregate(lg.windows.size(), kNoNode);
  ph.derives.resize(lg.unique.size());
  for (std::size_t u = 0; u < lg.unique.size(); ++u) {
    const LogicalBatchPlan::UniqueQuery& uq = lg.unique[u];
    PhysicalBatchPlan::DeriveNode& node = ph.derives[u];
    const QueryKind kind = uq.spec.kind;
    if (kind == QueryKind::kCustomScalar || kind == QueryKind::kCustomVector) {
      node.op = PhysicalBatchPlan::DeriveOp::kEvaluate;
      continue;
    }
    std::size_t& agg_index = window_to_aggregate[uq.window_index];
    if (agg_index == kNoNode) {
      agg_index = ph.aggregates.size();
      ph.aggregates.push_back({uq.window_index, AggregateSpec{}});
    }
    AggregateSpec& agg = ph.aggregates[agg_index].spec;
    node.aggregate_index = agg_index;
    switch (kind) {
      case QueryKind::kSum:
        node.op = PhysicalBatchPlan::DeriveOp::kSum;
        agg.need_sum = true;
        break;
      case QueryKind::kMean:
        node.op = PhysicalBatchPlan::DeriveOp::kMean;
        node.inv = 1.0 / static_cast<double>(uq.compile_length);
        agg.need_sum = true;
        break;
      case QueryKind::kStateFrequency: {
        node.op = PhysicalBatchPlan::DeriveOp::kStateFrequency;
        node.inv = 1.0 / static_cast<double>(uq.compile_length);
        std::size_t m = agg.match_states.size();
        for (std::size_t j = 0; j < agg.match_states.size(); ++j) {
          if (agg.match_states[j] == uq.spec.state) {
            m = j;
            break;
          }
        }
        if (m == agg.match_states.size()) {
          agg.match_states.push_back(uq.spec.state);
        }
        node.match_index = m;
        break;
      }
      case QueryKind::kCountHistogram:
        node.op = PhysicalBatchPlan::DeriveOp::kCountHistogram;
        agg.k = uq.dim;
        break;
      case QueryKind::kFrequencyHistogram:
        node.op = PhysicalBatchPlan::DeriveOp::kFrequencyHistogram;
        node.inv = 1.0 / static_cast<double>(uq.compile_length);
        agg.k = uq.dim;
        break;
      default:
        return Status::Internal("unhandled query kind in batch lowering");
    }
  }
  return plan;
}

}  // namespace

Result<std::shared_ptr<const CompiledBatchPlan>> PrepareBatchPlan(
    PrivacyEngine* engine, const BatchQuerySpec& batch, std::size_t data_size,
    const RequestOptions& request) {
  if (batch.empty()) {
    return Status::InvalidArgument("empty batch; nothing to compile");
  }
  // Compile() re-checks per unique query, but refusing here keeps the
  // answer independent of the rows and of the cache: an expired request
  // never reaches the charge, whatever its windows.
  if (request.deadline.expired()) {
    return Status::DeadlineExceeded(
        "request deadline already expired; nothing was charged");
  }
  const std::uint64_t shape = BatchShapeFingerprint(batch, data_size);
  std::uint64_t generation = 0;
  bool store = false;
  std::shared_ptr<const CompiledBatchPlan> prepared =
      PreparedPlanAccess::Find(engine, shape, &generation, &store);
  // Never trusted on the fingerprint alone: a false hit would release
  // under another query's sigma or Lipschitz constant.
  if (prepared != nullptr && MatchesPreparedPlan(*prepared, batch, data_size)) {
    return prepared;
  }
  PF_ASSIGN_OR_RETURN(CompiledBatchPlan compiled,
                      CompileColdBatchPlan(engine, batch, data_size, request));
  prepared = std::make_shared<const CompiledBatchPlan>(std::move(compiled));
  if (store) PreparedPlanAccess::Store(engine, shape, generation, prepared);
  return prepared;
}

Result<CompiledBatchPlan> CompileBatchPlan(PrivacyEngine* engine,
                                           const BatchQuerySpec& batch,
                                           std::size_t data_size,
                                           const RequestOptions& request) {
  PF_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledBatchPlan> plan,
                      PrepareBatchPlan(engine, batch, data_size, request));
  return *plan;
}

std::string CompiledBatchPlan::Explain() const {
  const LogicalBatchPlan& lg = logical;
  std::string out = "BatchPlan: " + std::to_string(num_rows()) + " rows -> " +
                    std::to_string(lg.unique.size()) + " unique queries over " +
                    std::to_string(lg.windows.size()) + " windows (" +
                    std::to_string(lg.total_values) + " values)\n";
  out += "logical: project -> window -> clip -> noise\n";
  for (std::size_t w = 0; w < lg.windows.size(); ++w) {
    const LogicalBatchPlan::Window& win = lg.windows[w];
    out += "  w" + std::to_string(w) + ": [" + std::to_string(win.offset) +
           ", " + std::to_string(win.offset + win.length) + ")" +
           (win.full_record ? " (full record)" : "") + "\n";
  }
  for (std::size_t u = 0; u < lg.unique.size(); ++u) {
    const LogicalBatchPlan::UniqueQuery& uq = lg.unique[u];
    out += "  u" + std::to_string(u) + ": " + QueryKindName(uq.spec.kind) +
           " eps=" + FormatDouble(uq.spec.epsilon) +
           " L=" + FormatDouble(uq.lipschitz) +
           " dim=" + std::to_string(uq.dim) + " w" +
           std::to_string(uq.window_index);
    if (u < compiled.size() && compiled[u].plan != nullptr) {
      out += " sigma=" + FormatDouble(compiled[u].plan->sigma);
    }
    if (uq.num_rows > 1) out += " (x" + std::to_string(uq.num_rows) + " rows)";
    out += "\n";
  }
  out += "physical:\n";
  for (std::size_t a = 0; a < physical.aggregates.size(); ++a) {
    const PhysicalBatchPlan::AggregateNode& agg = physical.aggregates[a];
    out += "  a" + std::to_string(a) + " <- aggregate(w" +
           std::to_string(agg.window_index) + "):";
    if (agg.spec.need_sum) out += " sum";
    if (agg.spec.k > 0) out += " hist[k=" + std::to_string(agg.spec.k) + "]";
    if (!agg.spec.match_states.empty()) {
      out += " matches{";
      for (std::size_t m = 0; m < agg.spec.match_states.size(); ++m) {
        if (m > 0) out += ",";
        out += std::to_string(agg.spec.match_states[m]);
      }
      out += "}";
    }
    out += "\n";
  }
  for (std::size_t u = 0; u < physical.derives.size(); ++u) {
    const PhysicalBatchPlan::DeriveNode& node = physical.derives[u];
    out += "  u" + std::to_string(u) + " <- ";
    if (node.op == PhysicalBatchPlan::DeriveOp::kEvaluate) {
      out += "evaluate(fn)";
    } else {
      out += "a" + std::to_string(node.aggregate_index) + "." +
             DeriveOpName(node.op);
      if (node.inv != 0.0) out += " * " + FormatDouble(node.inv);
    }
    out += "\n";
  }
  out += "  clip: scales[r] = L[r] * sigma[r] (simd=" +
         std::string(SimdLevelName(ActiveSimdLevel())) + ")\n";
  out += "  noise: Laplace per coordinate from a per-ticket mt19937_64 seeded "
         "by TicketNoiseSeed(seed, ticket) (kernel=" +
         std::string(NoiseKernelName()) + ")\n";
  return out;
}

Result<BatchReleaseResult> ExecuteBatchPlan(const CompiledBatchPlan& plan,
                                            const StateSequence& data,
                                            std::uint64_t seed,
                                            std::uint64_t first_ticket) {
  // Post-charge failure surface: the failpoint sweep pins that an injected
  // failure here lands as a typed Status (on the future, or returned by a
  // sync Release), never a crash, with the ledger stable.
  PF_FAILPOINT("batch.execute");
  const LogicalBatchPlan& lg = plan.logical;
  if (data.size() != lg.data_size) {
    return Status::InvalidArgument(
        "batch plan was compiled for a record of " +
        std::to_string(lg.data_size) + " observations, got " +
        std::to_string(data.size()));
  }
  const std::size_t rows = lg.row_to_unique.size();
  RecordBatch batch = RecordBatch::Make(rows, lg.total_values);

  // Offsets (Arrow-style list layout): row i's values span
  // [offsets[i], offsets[i+1]).
  std::size_t* offsets = batch.offsets();
  std::size_t off = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    offsets[i] = off;
    off += lg.unique[lg.row_to_unique[i]].dim;
  }
  offsets[rows] = off;

  // Aggregate: one pass per window (SimdLevel-dispatched, pure integers).
  struct AggOut {
    AggregateStats stats;
    std::vector<std::int64_t> counts;
    std::vector<std::int64_t> matches;
  };
  std::vector<AggOut> agg_out(plan.physical.aggregates.size());
  for (std::size_t a = 0; a < plan.physical.aggregates.size(); ++a) {
    const PhysicalBatchPlan::AggregateNode& node = plan.physical.aggregates[a];
    const LogicalBatchPlan::Window& win = lg.windows[node.window_index];
    AggOut& out = agg_out[a];
    out.counts.assign(node.spec.k, 0);
    out.matches.assign(node.spec.match_states.size(), 0);
    out.stats.counts = out.counts.data();
    out.stats.match_counts = out.matches.data();
    AggregateStates(data.data() + win.offset, win.length, node.spec,
                    &out.stats);
  }

  // Derive each unique query's truth once; rows sharing it copy the staged
  // values (releasing row by row recomputes the query per row,
  // deterministically — same values, O(T) more work).
  std::vector<Vector> truth(lg.unique.size());
  std::vector<StateSequence> slices(lg.windows.size());
  std::vector<bool> sliced(lg.windows.size(), false);
  for (std::size_t u = 0; u < lg.unique.size(); ++u) {
    const LogicalBatchPlan::UniqueQuery& uq = lg.unique[u];
    const PhysicalBatchPlan::DeriveNode& node = plan.physical.derives[u];
    Vector& v = truth[u];
    if (node.op == PhysicalBatchPlan::DeriveOp::kEvaluate) {
      const LogicalBatchPlan::Window& win = lg.windows[uq.window_index];
      const StateSequence* src = &data;
      if (!win.full_record &&
          !(win.offset == 0 && win.length == data.size())) {
        if (!sliced[uq.window_index]) {
          const auto begin =
              data.begin() + static_cast<std::ptrdiff_t>(win.offset);
          slices[uq.window_index] =
              StateSequence(begin, begin + static_cast<std::ptrdiff_t>(
                                               win.length));
          sliced[uq.window_index] = true;
        }
        src = &slices[uq.window_index];
      }
      const VectorQuery& q = plan.compiled[u].query;
      v = q.fn(*src);
      if (q.dim != 0 && v.size() != q.dim) {
        // Statically undetectable contract violation, discovered after the
        // batch was charged: the charge stands (overcharging a misdeclared
        // query is privacy-safe; refunding would require sessions to
        // outlive their futures).
        return Status::Internal(
            "query '" + q.name + "' returned dimension " +
            std::to_string(v.size()) + ", declared " + std::to_string(q.dim) +
            " (epsilon was charged)");
      }
      continue;
    }
    const AggOut& agg = agg_out[node.aggregate_index];
    switch (node.op) {
      case PhysicalBatchPlan::DeriveOp::kSum:
        v.assign(1, static_cast<double>(agg.stats.sum));
        break;
      case PhysicalBatchPlan::DeriveOp::kMean:
        v.assign(1, static_cast<double>(agg.stats.sum) * node.inv);
        break;
      case PhysicalBatchPlan::DeriveOp::kStateFrequency:
        v.assign(1,
                 static_cast<double>(agg.matches[node.match_index]) * node.inv);
        break;
      case PhysicalBatchPlan::DeriveOp::kCountHistogram:
        v.assign(uq.dim, 0.0);
        if (!agg.stats.out_of_range) {
          for (std::size_t s = 0; s < uq.dim; ++s) {
            v[s] = static_cast<double>(agg.counts[s]);
          }
        }
        break;
      case PhysicalBatchPlan::DeriveOp::kFrequencyHistogram:
        v.assign(uq.dim, 0.0);
        if (!agg.stats.out_of_range) {
          for (std::size_t s = 0; s < uq.dim; ++s) {
            v[s] = static_cast<double>(agg.counts[s]) * node.inv;
          }
        }
        break;
      case PhysicalBatchPlan::DeriveOp::kEvaluate:
        break;  // Handled above.
    }
  }

  // Fill the value buffer and the accounting columns.
  double* values = batch.values();
  double* epsilons = batch.epsilons();
  double* sigmas = batch.sigmas();
  std::uint64_t* tickets = batch.tickets();
  std::vector<double> lipschitz(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t u = lg.row_to_unique[i];
    const Vector& v = truth[u];
    double* row = values + offsets[i];
    for (std::size_t j = 0; j < v.size(); ++j) row[j] = v[j];
    epsilons[i] = plan.compiled[u].plan->epsilon;
    sigmas[i] = plan.compiled[u].plan->sigma;
    lipschitz[i] = lg.unique[u].lipschitz;
    tickets[i] = first_ticket + i;
  }

  // Clip: scales[r] = L[r] * sigma[r], vectorized.
  ClipScales(lipschitz.data(), sigmas, rows, batch.noise_scales());

  // Noise: per-ticket Laplace streams (TicketNoiseSeed(seed, ticket)).
  std::vector<std::shared_ptr<const MechanismPlan>> plans;
  plans.reserve(plan.compiled.size());
  for (const auto& c : plan.compiled) plans.push_back(c.plan);
  PF_RETURN_NOT_OK(ReleaseBatchColumnar(plans, seed, &batch));

  BatchReleaseResult result;
  result.batch = std::move(batch);
  result.mechanism =
      plans.empty() ? MechanismKind::kLaplaceDp : plans.front()->kind;
  return result;
}

}  // namespace pf
