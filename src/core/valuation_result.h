#ifndef FEDSHAP_CORE_VALUATION_RESULT_H_
#define FEDSHAP_CORE_VALUATION_RESULT_H_

#include <utility>
#include <vector>

#include "fl/utility_cache.h"

namespace fedshap {

/// Output of one valuation-algorithm run: the per-client data values plus
/// the cost accounting the benches report.
struct ValuationResult {
  /// phi_hat_i for every client i (size n).
  std::vector<double> values;
  /// Total U(.) queries issued by the algorithm.
  size_t num_evaluations = 0;
  /// Distinct coalitions evaluated (= FL trainings a standalone run would
  /// perform; the within-run memoization any sane implementation has).
  size_t num_trainings = 0;
  /// Of `num_trainings`, the coalitions this run actually trained itself
  /// (cache misses computed on this run's behalf). The remainder was
  /// reused — from earlier runs in the process, concurrent runs sharing
  /// the cache, or a persistent store. Equals `num_trainings` for an
  /// isolated cold run; the gap is the valuation service's cross-job
  /// dedup metric.
  size_t num_fresh_trainings = 0;
  /// Modeled cost: sum of the recorded train+evaluate seconds of every
  /// distinct coalition this run asked for, plus any directly measured
  /// algorithm-side work. This is the "Time" column of the paper-style
  /// tables (see the `charged=` field of the job done line in
  /// docs/OPERATIONS.md's log-line glossary).
  double charged_seconds = 0.0;
  /// Actual wall time of this run (mostly cache hits in repeated runs).
  double wall_seconds = 0.0;
};

/// Assembles a ValuationResult from an algorithm's values, its utility
/// session and the measured wall time.
inline ValuationResult FinishValuation(std::vector<double> values,
                                       const UtilitySession& session,
                                       double wall_seconds) {
  ValuationResult result;
  result.values = std::move(values);
  result.num_evaluations = session.num_evaluations();
  result.num_trainings = session.num_distinct();
  result.num_fresh_trainings = session.num_fresh_trainings();
  result.charged_seconds = session.charged_seconds();
  result.wall_seconds = wall_seconds;
  return result;
}

}  // namespace fedshap

#endif  // FEDSHAP_CORE_VALUATION_RESULT_H_
