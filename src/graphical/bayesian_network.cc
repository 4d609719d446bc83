#include "graphical/bayesian_network.h"

#include <algorithm>
#include <set>

namespace pf {

Status BayesianNetwork::AddNode(std::string name, int arity,
                                std::vector<int> parents, Matrix cpt) {
  if (arity <= 0) return Status::InvalidArgument("arity must be positive");
  std::size_t parent_rows = 1;
  for (int p : parents) {
    if (p < 0 || static_cast<std::size_t>(p) >= nodes_.size()) {
      return Status::InvalidArgument(
          "parent index out of range (parents must precede children)");
    }
    parent_rows *= static_cast<std::size_t>(nodes_[p].arity);
  }
  if (cpt.rows() != parent_rows || cpt.cols() != static_cast<std::size_t>(arity)) {
    return Status::InvalidArgument("CPT dimensions do not match parents/arity");
  }
  if (!cpt.IsRowStochastic(1e-8)) {
    return Status::InvalidArgument("CPT rows must be probability distributions");
  }
  nodes_.push_back({std::move(name), arity, std::move(parents), std::move(cpt)});
  return Status::OK();
}

std::size_t BayesianNetwork::ParentIndex(const Node& n, const Assignment& a) const {
  std::size_t idx = 0;
  for (int p : n.parents) {
    idx = idx * static_cast<std::size_t>(nodes_[p].arity) +
          static_cast<std::size_t>(a[p]);
  }
  return idx;
}

Result<double> BayesianNetwork::JointProbability(const Assignment& a) const {
  if (a.size() != nodes_.size()) {
    return Status::InvalidArgument("assignment size mismatch");
  }
  double p = 1.0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (a[i] < 0 || a[i] >= n.arity) {
      return Status::OutOfRange("assignment value out of range");
    }
    p *= n.cpt(ParentIndex(n, a), static_cast<std::size_t>(a[i]));
    if (p == 0.0) return 0.0;
  }
  return p;
}

Result<std::size_t> BayesianNetwork::NumAssignments(std::size_t limit) const {
  std::size_t total = 1;
  for (const Node& n : nodes_) {
    if (total > limit / static_cast<std::size_t>(n.arity)) {
      return Status::OutOfRange("assignment space exceeds enumeration limit");
    }
    total *= static_cast<std::size_t>(n.arity);
  }
  return total;
}

Status BayesianNetwork::ForEachAssignment(
    const std::function<void(const Assignment&, double)>& fn,
    std::size_t limit) const {
  PF_ASSIGN_OR_RETURN(std::size_t total, NumAssignments(limit));
  Assignment a(nodes_.size(), 0);
  for (std::size_t count = 0; count < total; ++count) {
    double p = 1.0;
    for (std::size_t i = 0; i < nodes_.size() && p > 0.0; ++i) {
      const Node& n = nodes_[i];
      p *= n.cpt(ParentIndex(n, a), static_cast<std::size_t>(a[i]));
    }
    if (p > 0.0) fn(a, p);
    // Increment mixed-radix counter (last node fastest).
    for (std::size_t i = nodes_.size(); i-- > 0;) {
      if (++a[i] < nodes_[i].arity) break;
      a[i] = 0;
    }
  }
  return Status::OK();
}

std::vector<Factor> BayesianNetwork::Factors() const {
  std::vector<Factor> factors;
  factors.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    std::vector<int> parent_arities;
    parent_arities.reserve(n.parents.size());
    for (int p : n.parents) {
      parent_arities.push_back(nodes_[static_cast<std::size_t>(p)].arity);
    }
    factors.push_back(CptFactor(n.parents, parent_arities,
                                static_cast<int>(i), n.arity, n.cpt));
  }
  return factors;
}

std::vector<int> BayesianNetwork::Arities() const {
  std::vector<int> arities;
  arities.reserve(nodes_.size());
  for (const Node& n : nodes_) arities.push_back(n.arity);
  return arities;
}

Result<Vector> BayesianNetwork::ConditionalJoint(
    const std::vector<int>& targets,
    const std::vector<std::pair<int, int>>& evidence, std::size_t limit) const {
  // FactorConditionalJoint validates the indices.
  return FactorConditionalJoint(Factors(), Arities(), targets, evidence, limit);
}

Result<Vector> BayesianNetwork::Marginal(int variable) const {
  return ConditionalJoint({variable}, {});
}

std::vector<int> BayesianNetwork::Children(int i) const {
  std::vector<int> kids;
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    const auto& parents = nodes_[j].parents;
    if (std::find(parents.begin(), parents.end(), i) != parents.end()) {
      kids.push_back(static_cast<int>(j));
    }
  }
  return kids;
}

std::vector<int> BayesianNetwork::MarkovBlanket(int i) const {
  std::set<int> blanket;
  for (int p : nodes_[static_cast<std::size_t>(i)].parents) blanket.insert(p);
  for (int c : Children(i)) {
    blanket.insert(c);
    for (int cp : nodes_[static_cast<std::size_t>(c)].parents) {
      if (cp != i) blanket.insert(cp);
    }
  }
  return {blanket.begin(), blanket.end()};
}

Assignment BayesianNetwork::Sample(Rng* rng) const {
  Assignment a(nodes_.size(), 0);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    a[i] = static_cast<int>(rng->Categorical(n.cpt.Row(ParentIndex(n, a))));
  }
  return a;
}

Result<BayesianNetwork> BayesianNetwork::FromMarkovChain(const Vector& initial,
                                                         const Matrix& transition,
                                                         std::size_t length) {
  if (length == 0) return Status::InvalidArgument("chain length must be positive");
  const int k = static_cast<int>(initial.size());
  BayesianNetwork bn;
  Matrix init_cpt(1, initial.size());
  for (std::size_t j = 0; j < initial.size(); ++j) init_cpt(0, j) = initial[j];
  PF_RETURN_NOT_OK(bn.AddNode("X0", k, {}, init_cpt));
  for (std::size_t t = 1; t < length; ++t) {
    PF_RETURN_NOT_OK(bn.AddNode("X" + std::to_string(t), k,
                                {static_cast<int>(t - 1)}, transition));
  }
  return bn;
}

}  // namespace pf
