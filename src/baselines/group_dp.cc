#include "baselines/group_dp.h"

#include <algorithm>

namespace pf {

Result<double> RelativeFrequencyGroupSensitivity(
    const std::vector<StateSequence>& sequences) {
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const StateSequence& s : sequences) {
    total += s.size();
    longest = std::max(longest, s.size());
  }
  if (total == 0) return Status::InvalidArgument("no observations");
  return 2.0 * static_cast<double>(longest) / static_cast<double>(total);
}

double MeanStateGroupSensitivity(std::size_t k) {
  // The whole chain is one group; flipping every X_t between the extreme
  // states 0 and k-1 moves the mean by (k-1).
  return static_cast<double>(k - 1);
}

}  // namespace pf
