#ifndef FEDSHAP_PERFBENCH_SERVICE_PASS_H_
#define FEDSHAP_PERFBENCH_SERVICE_PASS_H_

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "service/cluster_worker.h"
#include "service/job_spec.h"
#include "workloads.h"

namespace perfbench {

/// Closed-loop clients driving every workload: each submits its next job
/// from the stream when Wait on its previous one returns.
inline constexpr int kClients = 4;

/// The service's worker threads (and the traced executor's). Two, with
/// FedAvg training kept on the calling thread (main.cc), so a run keeps
/// at most two cores busy and leaves the rest of a small shared host to
/// everything else: with as many compute threads as cores, the figures
/// measure the host's scheduler as much as the program.
inline constexpr int kWorkers = 2;

/// Starts the loopback-TCP cluster a run of `plan` dispatches to (null
/// for in-process workloads). Each run gets a fresh one, with cold worker
/// caches.
fedshap::Result<std::unique_ptr<fedshap::LocalCluster>> StartCluster(
    const WorkloadPlan& plan);

/// The outcome of one job of the stream.
struct JobOutcome {
  bool ok = false;
  std::string error;  ///< Why the job failed or failed its check.
  double latency_s = 0.0;  ///< Submit -> Wait return.
  std::vector<double> values;
  size_t evaluations = 0;
};

/// One untraced run of a workload through ValuationService.
struct PassOutcome {
  double setup_s = 0.0;  ///< Process start -> first Submit.
  double wall_s = 0.0;   ///< First Submit -> last job terminal.
  double cpu_s = 0.0;    ///< Process CPU seconds over the wall interval.
  double peak_rss_mb = 0.0;
  size_t trainings = 0;  ///< Fresh trainings counted on the coordinator.
  size_t slices = 0;
  double submit_s = 0.0;  ///< Summed time inside Submit calls.
  std::vector<JobOutcome> jobs;  ///< In stream order.
};

/// Sets up, then runs the whole job stream with kClients closed-loop
/// clients against a service with kWorkers workers. `process_start`
/// anchors setup_s.
fedshap::Result<PassOutcome> RunServicePass(
    const WorkloadPlan& plan, const std::vector<fedshap::JobSpec>& jobs,
    std::chrono::steady_clock::time_point process_start);

/// Output checks that need no reference run: every job done, and every
/// exact-mc job efficient (sum of values = U(N) - U(empty)). Marks failing
/// jobs in place. Runs outside every timed region.
fedshap::Status CheckOutcomes(const std::vector<fedshap::JobSpec>& jobs,
                              std::vector<JobOutcome>& outcomes);

/// Mean relative L2 error of the ipss and stratified jobs against the
/// exact-mc job of the same tenant.
double ValueRelError(const std::vector<fedshap::JobSpec>& jobs,
                     const std::vector<JobOutcome>& outcomes);

/// Process CPU seconds (all threads) and peak RSS in MB so far.
double ProcessCpuSeconds();
double PeakRssMb();

}  // namespace perfbench

#endif  // FEDSHAP_PERFBENCH_SERVICE_PASS_H_
