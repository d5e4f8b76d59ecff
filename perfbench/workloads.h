#ifndef FEDSHAP_PERFBENCH_WORKLOADS_H_
#define FEDSHAP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/job_spec.h"
#include "util/status.h"

namespace perfbench {

/// Everything one workload run needs besides the program itself: the
/// seeded job stream and how the service is deployed around it.
struct WorkloadPlan {
  /// The job stream as JobSpec::ToLine lines, in submission order. The
  /// benchmark hands the service only what these lines parse back to.
  std::vector<std::string> job_lines;
  /// 0 = the service trains in process; otherwise the number of
  /// loopback-TCP thread-mode shards it dispatches to.
  int shards = 0;
  /// The workload whose in-process run of the same stream is the
  /// bit-identity reference ("" = none; the workload checks itself).
  std::string reference_workload;
};

/// Builds the named workload's plan from `seed`. The same (name, seed,
/// scale) always gives the same plan; another seed gives another stream
/// of the same shape (same tenants per family, estimator mix, budgets and
/// job count). `scale` in (0, 1] shrinks the stream for smoke tests: below
/// 1 the job counts scale down and tenants have n=8 instead of n=10.
fedshap::Result<WorkloadPlan> MakeWorkload(const std::string& name,
                                           uint64_t seed, double scale = 1.0);

/// Parses a plan's job lines back into specs (the service's only input).
fedshap::Result<std::vector<fedshap::JobSpec>> ParseJobs(
    const std::vector<std::string>& lines);

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_WORKLOADS_H_
