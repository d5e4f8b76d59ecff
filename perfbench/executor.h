#ifndef FEDSHAP_PERFBENCH_EXECUTOR_H_
#define FEDSHAP_PERFBENCH_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "service/job_spec.h"
#include "workloads.h"

namespace perfbench {

/// The traced run's result: every per-layer metric by name, the jobs it
/// ran and those that failed, and any check that did not hold.
struct TraceReport {
  std::map<std::string, double> metrics;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> problems;
};

/// The traced run (see README.md, "Traced run").
fedshap::Result<TraceReport> RunTraced(
    const WorkloadPlan& plan, const std::vector<fedshap::JobSpec>& jobs,
    const std::string& work_dir, const std::string& trace_out);

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_EXECUTOR_H_
