#include "service_pass.h"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "service/valuation_service.h"
#include "trace.h"

namespace perfbench {

using fedshap::EstimatorKind;
using fedshap::JobSpec;
using fedshap::Result;
using fedshap::Status;

namespace {

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Efficiency of exact Shapley values holds to rounding; this is the
/// allowed gap between sum(phi) and U(N) - U(empty).
constexpr double kEfficiencyTolerance = 1e-9;

}  // namespace

Result<std::unique_ptr<fedshap::LocalCluster>> StartCluster(
    const WorkloadPlan& plan) {
  if (plan.shards == 0) return std::unique_ptr<fedshap::LocalCluster>();
  fedshap::LocalClusterOptions options;
  options.num_workers = plan.shards;
  options.transport = fedshap::ClusterTransport::kTcp;
  return fedshap::LocalCluster::Start(options);
}

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

Result<PassOutcome> RunServicePass(
    const WorkloadPlan& plan, const std::vector<JobSpec>& jobs,
    std::chrono::steady_clock::time_point process_start) {
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<fedshap::LocalCluster> cluster,
                           StartCluster(plan));
  PassOutcome pass;
  pass.jobs.resize(jobs.size());
  {
    fedshap::ServiceConfig config;
    config.workers = kWorkers;
    if (cluster != nullptr) config.cluster = cluster->dispatcher();
    fedshap::ValuationService service(config);

    std::atomic<size_t> next{0};
    std::mutex submit_mutex;
    const double cpu_start = ProcessCpuSeconds();
    const auto wall_start = std::chrono::steady_clock::now();
    pass.setup_s =
        std::chrono::duration<double>(wall_start - process_start).count();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        double submit_s = 0.0;
        for (size_t i = next.fetch_add(1); i < jobs.size();
             i = next.fetch_add(1)) {
          JobOutcome& outcome = pass.jobs[i];
          ScopedSpan job_span("client.job", static_cast<int64_t>(i));
          const auto start = std::chrono::steady_clock::now();
          Status submitted = [&] {
            ScopedSpan submit_span("service.submit");
            return service.Submit(jobs[i]);
          }();
          submit_s += Since(start);
          if (!submitted.ok()) {
            outcome.error = submitted.ToString();
            continue;
          }
          Result<fedshap::ValuationResult> result = service.Wait(jobs[i].name);
          outcome.latency_s = Since(start);
          if (!result.ok()) {
            outcome.error = result.status().ToString();
            continue;
          }
          outcome.ok = true;
          outcome.values = result->values;
          outcome.evaluations = result->num_evaluations;
        }
        std::lock_guard<std::mutex> lock(submit_mutex);
        pass.submit_s += submit_s;
      });
    }
    for (std::thread& client : clients) client.join();
    pass.wall_s = Since(wall_start);
    pass.cpu_s = ProcessCpuSeconds() - cpu_start;
    pass.peak_rss_mb = PeakRssMb();
    const fedshap::ServiceStats stats = service.stats();
    pass.trainings = stats.trainings_computed;
    pass.slices = stats.slices_executed;
    service.Stop();
  }
  return pass;
}

Status CheckOutcomes(const std::vector<JobSpec>& jobs,
                     std::vector<JobOutcome>& outcomes) {
  std::map<std::string, double> gain_by_tenant;  // U(N) - U(empty)
  for (size_t i = 0; i < jobs.size(); ++i) {
    JobOutcome& outcome = outcomes[i];
    if (!outcome.ok) {
      if (outcome.error.empty()) outcome.error = "job did not finish";
      continue;
    }
    if (jobs[i].estimator != EstimatorKind::kExactMc) continue;
    const fedshap::ScenarioSpec& scenario = jobs[i].scenario;
    const std::string key = scenario.CanonicalKey();
    auto it = gain_by_tenant.find(key);
    if (it == gain_by_tenant.end()) {
      FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<fedshap::UtilityFunction> fn,
                               scenario.Build());
      FEDSHAP_ASSIGN_OR_RETURN(double full,
                               fn->Evaluate(fedshap::Coalition::Full(scenario.n)));
      FEDSHAP_ASSIGN_OR_RETURN(double empty, fn->Evaluate(fedshap::Coalition()));
      it = gain_by_tenant.emplace(key, full - empty).first;
    }
    double sum = 0.0;
    for (double value : outcome.values) sum += value;
    if (!(std::fabs(sum - it->second) <= kEfficiencyTolerance)) {
      outcome.ok = false;
      outcome.error = "exact-mc values are not efficient: sum " +
                      std::to_string(sum) + " vs U(N)-U(0) " +
                      std::to_string(it->second);
    }
  }
  return Status::OK();
}

double ValueRelError(const std::vector<JobSpec>& jobs,
                     const std::vector<JobOutcome>& outcomes) {
  std::map<std::string, const std::vector<double>*> exact;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].estimator == EstimatorKind::kExactMc && outcomes[i].ok) {
      exact[jobs[i].scenario.CanonicalKey()] = &outcomes[i].values;
    }
  }
  double sum = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].estimator != EstimatorKind::kIpss &&
        jobs[i].estimator != EstimatorKind::kStratified) {
      continue;
    }
    auto it = exact.find(jobs[i].scenario.CanonicalKey());
    if (it == exact.end() || !outcomes[i].ok) continue;
    const std::vector<double>& truth = *it->second;
    double diff = 0.0;
    double norm = 0.0;
    for (size_t c = 0; c < truth.size(); ++c) {
      diff += (outcomes[i].values[c] - truth[c]) *
              (outcomes[i].values[c] - truth[c]);
      norm += truth[c] * truth[c];
    }
    sum += std::sqrt(diff) / std::sqrt(norm);
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace perfbench
