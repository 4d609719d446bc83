// Group differential privacy (Definition 2.2) via the Laplace mechanism with
// group sensitivity (Definition B.1): every maximal set of correlated
// records forms a group, and noise is calibrated to the worst-case change of
// the query when an entire group's records change. For a single connected
// Markov chain the whole chain is one group, which is why GroupDP noise
// scales with the (longest) chain length — the baseline behaviour the paper
// contrasts against. The mechanism is GroupDpUnified (pufferfish/mechanism.h);
// this header holds the group sensitivities it is built from.
#ifndef PUFFERFISH_BASELINES_GROUP_DP_H_
#define PUFFERFISH_BASELINES_GROUP_DP_H_

#include <cstddef>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"

namespace pf {

/// \brief Group sensitivity of the pooled relative-frequency histogram when
/// each sequence is one fully correlated group: 2 * max_len / total_len
/// (changing every record of the longest sequence moves at most that much
/// L1 mass). This is the Section 5.3 GroupDP baseline's "Lap(M/T eps)"
/// calibration.
Result<double> RelativeFrequencyGroupSensitivity(
    const std::vector<StateSequence>& sequences);

/// Group sensitivity of the mean-state query (1/T) sum X_t over one
/// length-T chain forming a single group: (k-1) (the entire chain can flip
/// between extreme states). Used by the Section 5.2 synthetic baseline.
double MeanStateGroupSensitivity(std::size_t k);

}  // namespace pf

#endif  // PUFFERFISH_BASELINES_GROUP_DP_H_
