#include "engine/query_spec.h"

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/fingerprint.h"

namespace pf {

namespace {

/// Wraps a scalar query as a 1-dimensional vector query.
VectorQuery Vectorize(ScalarQuery q) {
  VectorQuery v;
  v.name = std::move(q.name);
  v.lipschitz = q.lipschitz;
  v.dim = 1;
  v.fn = [fn = std::move(q.fn)](const StateSequence& seq) {
    return Vector{fn(seq)};
  };
  return v;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSum: return "Sum";
    case QueryKind::kMean: return "Mean";
    case QueryKind::kStateFrequency: return "StateFrequency";
    case QueryKind::kCountHistogram: return "CountHistogram";
    case QueryKind::kFrequencyHistogram: return "FrequencyHistogram";
    case QueryKind::kCustomScalar: return "CustomScalar";
    case QueryKind::kCustomVector: return "CustomVector";
  }
  return "Unknown";
}

QuerySpec QuerySpec::Sum(double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kSum;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::Mean(double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kMean;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::StateFrequency(int state, double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kStateFrequency;
  spec.state = state;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::CountHistogram(double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kCountHistogram;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::FrequencyHistogram(double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kFrequencyHistogram;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::CustomScalar(
    std::string name, std::function<double(const StateSequence&)> fn,
    double lipschitz, double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kCustomScalar;
  spec.name = std::move(name);
  spec.scalar_fn = std::move(fn);
  spec.lipschitz = lipschitz;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::CustomVector(
    std::string name, std::function<Vector(const StateSequence&)> fn,
    double lipschitz, std::size_t dim, double epsilon) {
  QuerySpec spec;
  spec.kind = QueryKind::kCustomVector;
  spec.name = std::move(name);
  spec.vector_fn = std::move(fn);
  spec.lipschitz = lipschitz;
  spec.dim = dim;
  spec.epsilon = epsilon;
  return spec;
}

QuerySpec QuerySpec::WithEpsilon(double new_epsilon) const {
  QuerySpec spec = *this;
  spec.epsilon = new_epsilon;
  return spec;
}

std::string QuerySpec::CacheKey() const {
  std::string key = QueryKindName(kind);
  key += "/" + std::to_string(state);
  key += "/" + std::to_string(DoubleBits(epsilon));
  if (kind == QueryKind::kCustomScalar || kind == QueryKind::kCustomVector) {
    key += "/" + std::to_string(DoubleBits(lipschitz)) + "/" +
           std::to_string(dim) + "/" + name;
  }
  return key;
}

Status QuerySpec::Validate() const {
  if (!(epsilon > 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("query epsilon must be positive and finite");
  }
  switch (kind) {
    case QueryKind::kCustomScalar:
      if (!scalar_fn) {
        return Status::InvalidArgument("CustomScalar query has no body");
      }
      break;
    case QueryKind::kCustomVector:
      if (!vector_fn) {
        return Status::InvalidArgument("CustomVector query has no body");
      }
      if (dim == 0) {
        return Status::InvalidArgument("CustomVector query has dimension 0");
      }
      break;
    default:
      break;
  }
  if (kind == QueryKind::kCustomScalar || kind == QueryKind::kCustomVector) {
    if (!(lipschitz >= 0.0) || !std::isfinite(lipschitz)) {
      return Status::InvalidArgument(
          "custom query Lipschitz constant must be nonnegative and finite");
    }
    if (name.empty()) {
      return Status::InvalidArgument(
          "custom queries need a unique name (it identifies the query)");
    }
  }
  return Status::OK();
}

Result<VectorQuery> CompileQuerySpec(const QuerySpec& spec,
                                     std::size_t num_states,
                                     std::size_t length) {
  PF_RETURN_NOT_OK(spec.Validate());
  // kSum deliberately absent: on stateless models it degrades to the raw
  // L = 1 sum below.
  const bool needs_states = spec.kind == QueryKind::kMean ||
                            spec.kind == QueryKind::kCountHistogram ||
                            spec.kind == QueryKind::kFrequencyHistogram;
  const bool needs_length = spec.kind == QueryKind::kMean ||
                            spec.kind == QueryKind::kStateFrequency ||
                            spec.kind == QueryKind::kFrequencyHistogram;
  if (needs_states && num_states == 0) {
    return Status::FailedPrecondition(
        std::string(QueryKindName(spec.kind)) +
        " needs a model with an explicit state space");
  }
  if (needs_length && length == 0) {
    return Status::FailedPrecondition(
        std::string(QueryKindName(spec.kind)) +
        " needs a model with a fixed record length");
  }
  switch (spec.kind) {
    case QueryKind::kSum: {
      if (num_states == 0) {
        // Output-pair / sensitivity models: the mechanism's sigma already
        // absorbs the query sensitivity, so the raw sum releases at L = 1.
        ScalarQuery q;
        q.name = "sum";
        q.lipschitz = 1.0;
        q.fn = [](const StateSequence& seq) {
          double total = 0.0;
          for (int s : seq) total += static_cast<double>(s);
          return total;
        };
        return Vectorize(std::move(q));
      }
      return Vectorize(SumQuery(num_states));
    }
    case QueryKind::kMean:
      return Vectorize(MeanStateQuery(num_states, length));
    case QueryKind::kStateFrequency:
      return Vectorize(StateFrequencyQuery(spec.state, length));
    case QueryKind::kCountHistogram:
      return CountHistogramQuery(num_states);
    case QueryKind::kFrequencyHistogram:
      return RelativeFrequencyQuery(num_states, length);
    case QueryKind::kCustomScalar: {
      ScalarQuery q;
      q.name = spec.name;
      q.lipschitz = spec.lipschitz;
      q.fn = spec.scalar_fn;
      return Vectorize(std::move(q));
    }
    case QueryKind::kCustomVector: {
      VectorQuery q;
      q.name = spec.name;
      q.lipschitz = spec.lipschitz;
      q.dim = spec.dim;
      q.fn = spec.vector_fn;
      return q;
    }
  }
  return Status::Internal("unhandled query kind");
}

}  // namespace pf
