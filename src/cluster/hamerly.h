// Hamerly-accelerated weighted Lloyd iteration.
//
// The paper notes (§2) "several improvements for step 2 that allow us to
// limit the number of points that have to be re-sorted" but does not use
// them; this module supplies one — Hamerly's triangle-inequality bounds
// (Hamerly, SDM'10). The inner loop skips the full k-way distance scan
// for points whose bounds prove their assignment cannot change.
//
// It is not bitwise-identical to RunWeightedLloyd. What is measured
// (bench_accel, hamerly_test) is the final SSE agreeing within 1e-6
// relative from the same seeds; iteration counts may differ (the stop
// rules differ), and so may the fixed point when an empty-cluster repair
// fires, because the two pick repair donors differently.
//
// Per point we keep an upper bound u(i) on the distance to its assigned
// centroid and a lower bound l(i) on the distance to every other
// centroid; per centroid, the drift since the bounds were set and s(j) =
// half the distance to its nearest other centroid. A point is scanned
// only when u(i) > max(s(a_i), l(i)).

#ifndef PMKM_CLUSTER_HAMERLY_H_
#define PMKM_CLUSTER_HAMERLY_H_

#include "cluster/lloyd.h"

namespace pmkm {

/// Statistics of a Hamerly run (exposed for the acceleration bench).
struct HamerlyStats {
  size_t full_scans = 0;     // points that needed the k-way distance scan
  size_t bound_skips = 0;    // points proven unchanged by their bounds
  size_t iterations = 0;
};

/// Accelerated counterpart of RunWeightedLloyd with the same inputs and
/// returned model fields; the result matches it to within the tolerance
/// described above, not bitwise. `stats` may be null.
Result<ClusteringModel> RunHamerlyLloyd(const WeightedDataset& data,
                                        Dataset initial_centroids,
                                        const LloydConfig& config,
                                        Rng* rng,
                                        HamerlyStats* stats = nullptr);

}  // namespace pmkm

#endif  // PMKM_CLUSTER_HAMERLY_H_
