#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

using fedshap::EstimatorKind;
using fedshap::JobSpec;
using fedshap::Result;
using fedshap::ScenarioSpec;
using fedshap::Status;

namespace {

/// SplitMix64: a fixed, portable generator, so a seed names the same
/// stream on every platform and standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, SplitMix& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.Below(i)]);
  }
}

int Scaled(int count, double scale, int floor) {
  return std::max(floor, static_cast<int>(std::lround(count * scale)));
}

ScenarioSpec Tenant(SplitMix& rng, int n, int rounds, int epochs) {
  ScenarioSpec scenario;
  scenario.kind = "digits";
  scenario.n = n;
  scenario.seed = 1 + rng.Below(1u << 30);
  scenario.fl_rounds = rounds;
  scenario.local_epochs = epochs;
  return scenario;
}

JobSpec Job(std::string name, EstimatorKind estimator, int gamma,
            const ScenarioSpec& scenario, SplitMix& rng) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.estimator = estimator;
  spec.gamma = gamma;
  spec.seed = 1 + rng.Below(1u << 30);
  if (estimator == EstimatorKind::kStratified) spec.allocation = "neyman";
  spec.scenario = scenario;
  return spec;
}

/// The small-job kinds of dedup-mix, with their budgets.
struct SmallKind {
  const char* tag;
  EstimatorKind estimator;
  int gamma;
};
constexpr SmallKind kSmallKinds[] = {
    {"ipss", EstimatorKind::kIpss, 128},
    {"strat", EstimatorKind::kStratified, 128},
    {"perm", EstimatorKind::kPermMc, 100},
    {"kgreedy", EstimatorKind::kKGreedy, 32},
};

/// dedup-mix: three n=10 tenants at the default (cheap) FedAvg setting.
/// The exact-mc job of every tenant leads the stream, so nearly every
/// later lookup is a cache hit and wall time is the service's own
/// overhead: scheduling, estimator planning and cache lookups.
WorkloadPlan DedupMix(uint64_t seed, double scale) {
  SplitMix rng(seed * 0x2545f4914f6cdd1dULL + 11);
  const int n = scale < 1.0 ? 8 : 10;
  std::vector<ScenarioSpec> tenants;
  for (int t = 0; t < 3; ++t) tenants.push_back(Tenant(rng, n, 3, 1));

  WorkloadPlan plan;
  std::vector<int> order = {0, 1, 2};
  Shuffle(order, rng);
  for (int t : order) {
    plan.job_lines.push_back(Job("exact-t" + std::to_string(t),
                                 EstimatorKind::kExactMc, 32, tenants[t], rng)
                                 .ToLine());
  }
  const int small = Scaled(4000, scale, 8);
  std::vector<JobSpec> jobs;
  for (int i = 0; i < small; ++i) {
    const SmallKind& kind = kSmallKinds[i % 4];
    const int t = (i / 4) % 3;
    JobSpec spec = Job("", kind.estimator, kind.gamma, tenants[t], rng);
    spec.name = std::string(kind.tag) + "-t" + std::to_string(t) + "-" +
                std::to_string(i);
    jobs.push_back(std::move(spec));
  }
  Shuffle(jobs, rng);
  for (const JobSpec& spec : jobs) plan.job_lines.push_back(spec.ToLine());
  return plan;
}

/// train-bound: n=10 tenants with FedAvg raised to rounds=5, epochs=2
/// (tau of about 2 ms). Two exact-mc ground-truth jobs lead the stream;
/// every tenant then gets an ipss, a neyman-stratified and a perm-mc job
/// twice, with different sampling seeds, in seeded order. Run in process,
/// it is not a benchmark workload of its own but the reference that
/// cluster-train's values must match bit for bit.
WorkloadPlan TrainBound(uint64_t seed, double scale) {
  SplitMix rng(seed * 0x9e3779b97f4a7c15ULL + 23);
  const int n = scale < 1.0 ? 8 : 10;
  const int num_tenants = Scaled(17, scale, 2);
  std::vector<ScenarioSpec> tenants;
  for (int t = 0; t < num_tenants; ++t) {
    tenants.push_back(Tenant(rng, n, 5, 2));
  }

  WorkloadPlan plan;
  for (int t = 0; t < 2; ++t) {
    plan.job_lines.push_back(Job("exact-t" + std::to_string(t),
                                 EstimatorKind::kExactMc, 32, tenants[t], rng)
                                 .ToLine());
  }
  std::vector<JobSpec> jobs;
  for (int t = 0; t < num_tenants; ++t) {
    for (int copy = 0; copy < 2; ++copy) {
      const std::string suffix =
          "-t" + std::to_string(t) + "-" + std::to_string(copy);
      jobs.push_back(Job("ipss" + suffix, EstimatorKind::kIpss, 32,
                         tenants[t], rng));
      jobs.push_back(Job("strat" + suffix, EstimatorKind::kStratified, 32,
                         tenants[t], rng));
      jobs.push_back(Job("perm" + suffix, EstimatorKind::kPermMc, 3 * n,
                         tenants[t], rng));
    }
  }
  Shuffle(jobs, rng);
  for (const JobSpec& spec : jobs) plan.job_lines.push_back(spec.ToLine());
  return plan;
}

}  // namespace

Result<WorkloadPlan> MakeWorkload(const std::string& name, uint64_t seed,
                                  double scale) {
  if (!(scale > 0.0 && scale <= 1.0)) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  if (name == "dedup-mix") return DedupMix(seed, scale);
  if (name == "train-bound") return TrainBound(seed, scale);
  if (name == "cluster-train") {
    WorkloadPlan plan = TrainBound(seed, scale);
    plan.shards = 4;
    plan.reference_workload = "train-bound";
    return plan;
  }
  return Status::InvalidArgument("unknown workload '" + name + "'");
}

Result<std::vector<JobSpec>> ParseJobs(const std::vector<std::string>& lines) {
  std::vector<JobSpec> jobs;
  jobs.reserve(lines.size());
  for (const std::string& line : lines) {
    FEDSHAP_ASSIGN_OR_RETURN(JobSpec spec, JobSpec::FromLine(line));
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

}  // namespace perfbench
