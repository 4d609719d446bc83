// Warm-restart persistence for analyzed mechanism plans. A serving process
// that restarts (deploy, crash, migration) loses its AnalysisCache and
// would re-pay the O(T k^2) / O(k^Q) analysis cost for every (model,
// epsilon) it serves; a snapshot saved before shutdown and loaded at boot
// turns that cold start into a file read. The snapshot holds exactly what
// AnalysisCache::ExportPlans exports: (fingerprint, epsilon_bits, kind)
// keys plus the full MechanismPlan — sigma, applicability, and every
// diagnostic — so a restored plan is bit-identical to the one analyzed.
//
// Format "PFPLAN02" (version-tagged, checksummed, fixed-width):
//
//   bytes 0..7    magic + version tag "PFPLAN02" (ASCII)
//   u64           entry count
//   per entry     fingerprint, epsilon_bits, kind, serialized plan
//   u64           FNV-1a checksum of every preceding byte
//
// The fingerprint is Mechanism::Fingerprint() as pf::Fingerprint
// (common/fingerprint.h) computes it, so the tag names the hasher as well
// as the layout: "PFPLAN02" keys come from the word-at-a-time hasher.
// "PFPLAN01" files (same layout, keys from the older byte-at-a-time
// FNV-1a hasher) are rejected like any other unknown tag; importing them
// would store plans under keys no mechanism ever matches again.
//
// All integers are little-endian u64; doubles are stored as their raw bit
// patterns, so round-trips are bit-exact (including signed zeros, NaNs,
// and the +infinity sigmas of inapplicable plans). Loads are rejected —
// never partially applied — on a bad magic/version tag, a truncated or
// overlong payload, or a checksum mismatch (bit rot, torn write).
//
// Deliberately NOT serialized:
//  - cache_hit_count: a process-lifetime diagnostic; restored plans start
//    at zero with a fresh counter.
//  - resumable chain scan state: O(T) mutable buffers. A restored cache
//    serves exact-length hits immediately; the first *append* past a
//    snapshot length re-seeds the chain with one cold resumable analysis
//    (correct, just not incremental) and is O(delta) from then on.
#ifndef PUFFERFISH_PUFFERFISH_PLAN_STORE_H_
#define PUFFERFISH_PUFFERFISH_PLAN_STORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "pufferfish/analysis_cache.h"

namespace pf {

/// Serializes `entries` to the PFPLAN02 wire format (in memory).
std::string EncodePlanSnapshot(const std::vector<CachedPlan>& entries);

/// \brief Parses a PFPLAN02 snapshot. Rejects (InvalidArgument) bad
/// magic/version tags, truncation, trailing garbage, and checksum
/// mismatches; on success every plan carries a fresh zeroed hit counter.
Result<std::vector<CachedPlan>> DecodePlanSnapshot(const std::string& bytes);

/// \brief Writes `entries` to `path` atomically: the snapshot is encoded,
/// written to a sibling temp file, flushed, and renamed over `path`, so a
/// crash mid-save leaves either the old snapshot or the new one — never a
/// torn file. Returns Internal on I/O failure.
Status SavePlanSnapshot(const std::string& path,
                        const std::vector<CachedPlan>& entries);

/// \brief Reads and parses the snapshot at `path`. NotFound when the file
/// cannot be opened; InvalidArgument when it fails validation (see
/// DecodePlanSnapshot) — callers treat both as "start cold".
Result<std::vector<CachedPlan>> LoadPlanSnapshot(const std::string& path);

}  // namespace pf

#endif  // PUFFERFISH_PUFFERFISH_PLAN_STORE_H_
