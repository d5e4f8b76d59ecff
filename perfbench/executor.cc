// The traced run. ValuationService keeps its layers private, and this
// benchmark may only time calls it makes itself, so the traced run has
// three parts:
//
//  1. the service pass as in an untraced run, with spans around each
//     client's Submit and Wait (service.* metrics);
//  2. the executor: the same job stream run by kWorkers closed-loop
//     threads that make the service's calls themselves -- build the
//     workload, open a UtilitySession on the tenant's shared cache, run
//     the estimator slice by slice (Step, then Snapshot) and Finish --
//     untraced and traced in turn, so each layer's self time shows and
//     the difference is the tracing overhead. Values must match the
//     service pass bit for bit;
//  3. replays of the traced executor's own key stream and records into
//     single layers: cache hits, store put/flush/lookup, FedAvg
//     train/score and, for workloads that train in process, cluster RPCs.

#include "executor.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "core/resumable.h"
#include "fl/fedavg.h"
#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "fl/utility_store.h"
#include "service/cluster.h"
#include "service/cluster_worker.h"
#include "service_pass.h"
#include "trace.h"
#include "util/thread_pool.h"

namespace perfbench {

using fedshap::ClusterDispatcher;
using fedshap::Coalition;
using fedshap::JobSpec;
using fedshap::Result;
using fedshap::Status;
using fedshap::UtilityFunction;

namespace {

/// The largest share of the traced executor's worker time that the layer
/// spans may leave uncovered: the executor's own bookkeeping between
/// calls, and waits for another job's workload build.
constexpr double kClosureTolerance = 0.05;
/// Trained coalitions replayed through TrainFedAvg + EvaluateParameters.
constexpr size_t kFedAvgReplays = 32;
/// Trained coalitions replayed through a 4-shard cluster on workloads
/// that train in process.
constexpr size_t kClusterReplays = 256;
constexpr int kReplayShards = 4;

double SecondsSince(int64_t start_ns) {
  return (Tracer::NowNs() - start_ns) * 1e-9;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One utility evaluation behind a cache miss.
struct Evaluation {
  Coalition coalition;
  double utility = 0.0;
  double seconds = 0.0;
  bool remote = false;  ///< Trained by a cluster shard.
};

/// What a TracedUtility saw.
struct EvaluationTotals {
  std::vector<Evaluation> evaluations;
  double local_s = 0.0;       ///< Trainings run in this process.
  size_t rpcs = 0;            ///< RPCs that returned a record.
  double rpc_s = 0.0;
  double rpc_overhead_s = 0.0;  ///< rpc_s minus the records' cost_seconds.
  double worker_cost_s = 0.0;   ///< Summed cost_seconds of those records.
};

/// A tenant's evaluation path with spans around it: the local FedAvg
/// training, or the cluster RPC with the degraded-mode fallback that
/// ClusterUtility applies.
class TracedUtility final : public UtilityFunction {
 public:
  TracedUtility(const UtilityFunction* local, ClusterDispatcher* dispatcher,
                std::string key)
      : local_(local), dispatcher_(dispatcher), key_(std::move(key)) {}

  int num_clients() const override { return local_->num_clients(); }
  uint64_t Fingerprint() const override { return local_->Fingerprint(); }

  Result<double> Evaluate(const Coalition& coalition) const override {
    if (dispatcher_ != nullptr) {
      Result<fedshap::UtilityRecord> record = Rpc(coalition);
      if (record.ok()) return record->utility;
      if (record.status().code() != fedshap::StatusCode::kUnavailable) {
        return record.status();
      }
      dispatcher_->NoteDegradedEvaluation();
    }
    ScopedSpan span("fl.evaluate");
    const int64_t start = Tracer::NowNs();
    Result<double> value = local_->Evaluate(coalition);
    const double seconds = SecondsSince(start);
    if (value.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      totals_.local_s += seconds;
      totals_.evaluations.push_back({coalition, *value, seconds, false});
    }
    return value;
  }

  EvaluationTotals totals() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return totals_;
  }

 private:
  Result<fedshap::UtilityRecord> Rpc(const Coalition& coalition) const {
    ScopedSpan span("cluster.rpc");
    const int64_t start = Tracer::NowNs();
    Result<fedshap::UtilityRecord> record =
        dispatcher_->Evaluate(key_, coalition);
    const double seconds = SecondsSince(start);
    std::lock_guard<std::mutex> lock(mutex_);
    if (record.ok()) {
      ++totals_.rpcs;
      totals_.rpc_s += seconds;
      totals_.rpc_overhead_s += seconds - record->cost_seconds;
      totals_.worker_cost_s += record->cost_seconds;
      totals_.evaluations.push_back({coalition, record->utility, seconds, true});
    }
    return record;
  }

  const UtilityFunction* local_;
  ClusterDispatcher* dispatcher_;
  std::string key_;
  mutable std::mutex mutex_;
  mutable EvaluationTotals totals_;
};

/// One workload context of the executor, built by the first job that
/// needs it (as ValuationService builds on first Submit).
struct Tenant {
  fedshap::ScenarioSpec scenario;
  std::string key;
  std::mutex build_mutex;
  bool built = false;  // guarded by build_mutex
  std::unique_ptr<UtilityFunction> utility;
  std::unique_ptr<TracedUtility> traced;
  std::unique_ptr<fedshap::UtilityCache> cache;
};

/// One run of the job stream by the executor.
struct ExecutorRun {
  std::unique_ptr<fedshap::LocalCluster> cluster;  // outlives the tenants
  std::map<std::string, std::unique_ptr<Tenant>> tenants;
  std::vector<JobOutcome> outcomes;
  double wall_s = 0.0;
  size_t snapshots = 0;
  size_t snapshot_bytes = 0;
  std::vector<Span> spans;
};

Status EnsureBuilt(Tenant& tenant, ClusterDispatcher* dispatcher) {
  std::lock_guard<std::mutex> lock(tenant.build_mutex);
  if (tenant.built) return Status::OK();
  ScopedSpan span("service.workload");
  {
    ScopedSpan build("data.build");
    FEDSHAP_ASSIGN_OR_RETURN(tenant.utility, tenant.scenario.Build());
  }
  if (dispatcher != nullptr) {
    dispatcher->RegisterWorkload(tenant.key, tenant.scenario,
                                 tenant.utility->Fingerprint());
  }
  tenant.traced = std::make_unique<TracedUtility>(tenant.utility.get(),
                                                  dispatcher, tenant.key);
  tenant.cache = std::make_unique<fedshap::UtilityCache>(tenant.traced.get());
  tenant.built = true;
  return Status::OK();
}

Result<fedshap::ValuationResult> RunEstimator(const JobSpec& spec,
                                              fedshap::UtilitySession& session,
                                              size_t& snapshots,
                                              size_t& snapshot_bytes) {
  if (!fedshap::IsResumable(spec.estimator)) {
    ScopedSpan span("core.oneshot");
    return fedshap::RunOneShot(spec, session);
  }
  std::unique_ptr<fedshap::ResumableEstimator> sweep;
  {
    ScopedSpan span("core.make");
    FEDSHAP_ASSIGN_OR_RETURN(sweep,
                             fedshap::MakeSweep(spec, spec.scenario.n));
  }
  while (!sweep->done()) {
    {
      ScopedSpan span("core.step");
      FEDSHAP_RETURN_NOT_OK(sweep->Step(session, spec.checkpoint_every));
    }
    ScopedSpan span("core.snapshot");
    FEDSHAP_ASSIGN_OR_RETURN(std::string snapshot, sweep->Snapshot());
    ++snapshots;
    snapshot_bytes += snapshot.size();
  }
  ScopedSpan span("core.finish");
  return sweep->Finish(session);
}

Result<std::unique_ptr<ExecutorRun>> RunExecutor(
    const WorkloadPlan& plan, const std::vector<JobSpec>& jobs, bool traced) {
  auto run = std::make_unique<ExecutorRun>();
  FEDSHAP_ASSIGN_OR_RETURN(run->cluster, StartCluster(plan));
  ClusterDispatcher* dispatcher =
      run->cluster != nullptr ? run->cluster->dispatcher() : nullptr;
  for (const JobSpec& spec : jobs) {
    const std::string key = spec.scenario.CanonicalKey();
    if (run->tenants.count(key) != 0) continue;
    auto tenant = std::make_unique<Tenant>();
    tenant->scenario = spec.scenario;
    tenant->key = key;
    run->tenants.emplace(key, std::move(tenant));
  }
  run->outcomes.resize(jobs.size());

  Tracer::Get().set_enabled(traced);
  std::atomic<size_t> next{0};
  std::mutex tally_mutex;
  const int64_t start = Tracer::NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kWorkers; ++c) {
    clients.emplace_back([&] {
      ScopedSpan client("executor.client");
      size_t snapshots = 0;
      size_t snapshot_bytes = 0;
      for (size_t i = next.fetch_add(1); i < jobs.size();
           i = next.fetch_add(1)) {
        ScopedSpan job("job", static_cast<int64_t>(i));
        JobOutcome& outcome = run->outcomes[i];
        Tenant& tenant = *run->tenants.at(jobs[i].scenario.CanonicalKey());
        // As a service worker does for each slice: this thread is one
        // compute thread, so nested FedAvg fan-out sees it as busy.
        fedshap::WorkerBudget::Lease slot(fedshap::WorkerBudget::Global(), 1);
        Result<fedshap::ValuationResult> result = [&]()
            -> Result<fedshap::ValuationResult> {
          FEDSHAP_RETURN_NOT_OK(EnsureBuilt(tenant, dispatcher));
          fedshap::UtilitySession session(tenant.cache.get());
          return RunEstimator(jobs[i], session, snapshots, snapshot_bytes);
        }();
        if (!result.ok()) {
          outcome.error = result.status().ToString();
          continue;
        }
        outcome.ok = true;
        outcome.values = result->values;
        outcome.evaluations = result->num_evaluations;
      }
      std::lock_guard<std::mutex> lock(tally_mutex);
      run->snapshots += snapshots;
      run->snapshot_bytes += snapshot_bytes;
    });
  }
  for (std::thread& client : clients) client.join();
  run->wall_s = SecondsSince(start);
  Tracer::Get().set_enabled(false);
  run->spans = Tracer::Get().Take();
  if (dispatcher != nullptr) run->cluster->Shutdown();
  return run;
}

/// Every evaluation the run's tenants saw, with the tenant it belongs to.
std::vector<std::pair<const Tenant*, Evaluation>> Evaluations(
    const ExecutorRun& run) {
  std::vector<std::pair<const Tenant*, Evaluation>> out;
  for (const auto& [key, tenant] : run.tenants) {
    if (!tenant->built) continue;
    for (const Evaluation& evaluation : tenant->traced->totals().evaluations) {
      out.emplace_back(tenant.get(), evaluation);
    }
  }
  return out;
}

/// Max over mean of coalitions per shard under the dispatcher's
/// coalition -> shard hash.
double ShardSkew(const std::vector<Coalition>& coalitions, int shards) {
  if (coalitions.empty()) return 0.0;
  std::vector<size_t> per_shard(static_cast<size_t>(shards), 0);
  for (const Coalition& coalition : coalitions) {
    ++per_shard[coalition.Hash() % static_cast<size_t>(shards)];
  }
  size_t max = 0;
  for (size_t count : per_shard) max = std::max(max, count);
  return max / (static_cast<double>(coalitions.size()) / shards);
}

void SetClusterMetrics(const std::vector<EvaluationTotals>& totals,
                       double wall_s, int shards, TraceReport& report) {
  EvaluationTotals sum;
  std::vector<Coalition> remote;
  for (const EvaluationTotals& part : totals) {
    sum.rpcs += part.rpcs;
    sum.rpc_s += part.rpc_s;
    sum.rpc_overhead_s += part.rpc_overhead_s;
    sum.worker_cost_s += part.worker_cost_s;
    for (const Evaluation& evaluation : part.evaluations) {
      if (evaluation.remote) remote.push_back(evaluation.coalition);
    }
  }
  const double rpcs = std::max<size_t>(1, sum.rpcs);
  report.metrics["cluster.rpc_s"] = sum.rpc_s / rpcs;
  report.metrics["cluster.rpc_overhead_s"] = sum.rpc_overhead_s / rpcs;
  report.metrics["cluster.shard_skew"] = ShardSkew(remote, shards);
  report.metrics["cluster.worker_busy_share"] =
      sum.worker_cost_s / (wall_s * shards);
}

/// Replays trained coalitions through a fresh 4-shard loopback-TCP
/// cluster (workloads that never dispatch), checking every returned
/// utility against the in-process value.
Status ReplayCluster(const ExecutorRun& run, TraceReport& report) {
  WorkloadPlan replay;
  replay.shards = kReplayShards;
  FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<fedshap::LocalCluster> cluster,
                           StartCluster(replay));
  ClusterDispatcher* dispatcher = cluster->dispatcher();
  std::map<const Tenant*, std::unique_ptr<TracedUtility>> remotes;
  std::vector<std::pair<const TracedUtility*, Evaluation>> work;
  const auto all = Evaluations(run);
  const size_t stride = std::max<size_t>(1, all.size() / kClusterReplays);
  for (size_t i = 0; i < all.size() && work.size() < kClusterReplays;
       i += stride) {
    const Tenant* tenant = all[i].first;
    std::unique_ptr<TracedUtility>& remote = remotes[tenant];
    if (remote == nullptr) {
      dispatcher->RegisterWorkload(tenant->key, tenant->scenario,
                                   tenant->utility->Fingerprint());
      remote = std::make_unique<TracedUtility>(tenant->utility.get(),
                                               dispatcher, tenant->key);
    }
    work.emplace_back(remote.get(), all[i].second);
  }
  std::atomic<size_t> next{0};
  std::atomic<size_t> mismatches{0};
  Tracer::Get().set_enabled(true);
  const int64_t start = Tracer::NowNs();
  std::vector<std::thread> clients;
  for (int c = 0; c < kWorkers; ++c) {
    clients.emplace_back([&] {
      ScopedSpan client("replay.client");
      for (size_t i = next.fetch_add(1); i < work.size();
           i = next.fetch_add(1)) {
        Result<double> value = work[i].first->Evaluate(work[i].second.coalition);
        if (!value.ok() || std::memcmp(&*value, &work[i].second.utility,
                                       sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall_s = SecondsSince(start);
  Tracer::Get().set_enabled(false);
  std::vector<EvaluationTotals> totals;
  for (const auto& [tenant, remote] : remotes) totals.push_back(remote->totals());
  SetClusterMetrics(totals, wall_s, kReplayShards, report);
  cluster->Shutdown();
  if (mismatches.load() != 0) {
    report.problems.push_back(std::to_string(mismatches.load()) +
                              " cluster replay value(s) differ from the "
                              "in-process training");
  }
  return Status::OK();
}

/// Get on the warm caches over their own key stream: every call a hit.
void ReplayCacheHits(const ExecutorRun& run, TraceReport& report) {
  size_t gets = 0;
  const int64_t start = Tracer::NowNs();
  for (const auto& [tenant, evaluation] : Evaluations(run)) {
    (void)tenant->cache->Get(evaluation.coalition);
    ++gets;
  }
  report.metrics["fl.cache.hit_get_s"] =
      SecondsSince(start) / std::max<size_t>(1, gets);
}

/// The run's records appended to fresh per-tenant stores with a flush
/// after every record (the service's default flush interval), then
/// looked up again.
Status ReplayStore(const ExecutorRun& run, const std::string& work_dir,
                   TraceReport& report) {
  const std::string dir =
      work_dir + "/store-replay-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  size_t records = 0;
  size_t flushes = 0;
  size_t lookups = 0;
  size_t mismatches = 0;
  double put_s = 0.0;
  double flush_s = 0.0;
  double lookup_s = 0.0;
  uint64_t bytes = 0;
  for (const auto& [key, tenant] : run.tenants) {
    if (!tenant->built) continue;
    const std::vector<Evaluation> evaluations =
        tenant->traced->totals().evaluations;
    if (evaluations.empty()) continue;
    const uint64_t fingerprint = tenant->utility->Fingerprint();
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<fedshap::UtilityStore> store,
        fedshap::UtilityStore::Open(
            fedshap::UtilityStore::StemPath(dir + "/utilities", fingerprint),
            fingerprint));
    for (const Evaluation& evaluation : evaluations) {
      int64_t start = Tracer::NowNs();
      store->Put(evaluation.coalition, {evaluation.utility, evaluation.seconds});
      put_s += SecondsSince(start);
      start = Tracer::NowNs();
      FEDSHAP_RETURN_NOT_OK(store->Flush());
      flush_s += SecondsSince(start);
      ++records;
      ++flushes;
    }
    for (const Evaluation& evaluation : evaluations) {
      fedshap::UtilityRecord record;
      const int64_t start = Tracer::NowNs();
      const bool found = store->Lookup(evaluation.coalition, &record);
      lookup_s += SecondsSince(start);
      ++lookups;
      if (!found || record.utility != evaluation.utility) ++mismatches;
    }
    const fedshap::UtilityStoreStats stats = store->stats();
    bytes += stats.sealed_bytes + stats.active_bytes;
  }
  std::filesystem::remove_all(dir, ec);
  report.metrics["fl.store.put_s"] = put_s / std::max<size_t>(1, records);
  report.metrics["fl.store.flush_s"] = flush_s / std::max<size_t>(1, flushes);
  report.metrics["fl.store.flushes"] = static_cast<double>(flushes);
  report.metrics["fl.store.bytes"] = static_cast<double>(bytes);
  report.metrics["fl.store.lookup_s"] = lookup_s / std::max<size_t>(1, lookups);
  if (mismatches != 0) {
    report.problems.push_back(std::to_string(mismatches) +
                              " store lookup(s) did not return the record");
  }
  return Status::OK();
}

/// TrainFedAvg then EvaluateParameters on a spread of trained
/// coalitions; each score must equal the utility the run recorded.
Status ReplayFedAvg(const ExecutorRun& run, TraceReport& report) {
  const auto all = Evaluations(run);
  const size_t stride = std::max<size_t>(1, all.size() / kFedAvgReplays);
  size_t replays = 0;
  size_t mismatches = 0;
  double train_s = 0.0;
  double score_s = 0.0;
  for (size_t i = 0; i < all.size() && replays < kFedAvgReplays; i += stride) {
    const auto* fedavg =
        dynamic_cast<const fedshap::FedAvgUtility*>(all[i].first->utility.get());
    if (fedavg == nullptr) {
      return Status::InvalidArgument("workload utility is not FedAvg");
    }
    std::vector<const fedshap::FlClient*> members;
    for (int c = 0; c < fedavg->num_clients(); ++c) {
      if (all[i].second.coalition.Contains(fedavg->client(c).id())) {
        members.push_back(&fedavg->client(c));
      }
    }
    int64_t start = Tracer::NowNs();
    FEDSHAP_ASSIGN_OR_RETURN(
        std::unique_ptr<fedshap::Model> model,
        fedshap::TrainFedAvg(fedavg->prototype(), members, fedavg->config()));
    train_s += SecondsSince(start);
    const std::vector<float> params = model->GetParameters();
    start = Tracer::NowNs();
    FEDSHAP_ASSIGN_OR_RETURN(double score, fedavg->EvaluateParameters(params));
    score_s += SecondsSince(start);
    if (std::memcmp(&score, &all[i].second.utility, sizeof(double)) != 0) {
      ++mismatches;
    }
    ++replays;
  }
  report.metrics["fl.fedavg.train_s"] = train_s / std::max<size_t>(1, replays);
  report.metrics["fl.fedavg.score_s"] = score_s / std::max<size_t>(1, replays);
  if (mismatches != 0) {
    report.problems.push_back(std::to_string(mismatches) +
                              " FedAvg replay score(s) differ from Evaluate");
  }
  return Status::OK();
}

}  // namespace

Result<TraceReport> RunTraced(const WorkloadPlan& plan,
                              const std::vector<JobSpec>& jobs,
                              const std::string& work_dir,
                              const std::string& trace_out) {
  TraceReport report;
  report.attempted = jobs.size();

  Tracer::Get().set_enabled(true);
  FEDSHAP_ASSIGN_OR_RETURN(
      PassOutcome service,
      RunServicePass(plan, jobs, std::chrono::steady_clock::now()));
  Tracer::Get().set_enabled(false);
  std::vector<Span> service_spans = Tracer::Get().Take();
  FEDSHAP_RETURN_NOT_OK(CheckOutcomes(jobs, service.jobs));

  // Untraced and traced executor runs alternate, so neither side is
  // always the one that runs first; the last traced run is reported.
  constexpr int kRounds = 2;
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  std::vector<std::vector<JobOutcome>> executor_outcomes;
  std::unique_ptr<ExecutorRun> run;
  for (int round = 0; round < kRounds; ++round) {
    FEDSHAP_ASSIGN_OR_RETURN(std::unique_ptr<ExecutorRun> untraced,
                             RunExecutor(plan, jobs, false));
    untraced_wall_s += untraced->wall_s;
    executor_outcomes.push_back(std::move(untraced->outcomes));
    if (run != nullptr) executor_outcomes.push_back(std::move(run->outcomes));
    untraced.reset();
    run.reset();
    FEDSHAP_ASSIGN_OR_RETURN(run, RunExecutor(plan, jobs, true));
    traced_wall_s += run->wall_s;
  }
  executor_outcomes.push_back(run->outcomes);

  for (size_t i = 0; i < jobs.size(); ++i) {
    const JobOutcome& reference = service.jobs[i];
    std::string problem = reference.ok ? "" : "service: " + reference.error;
    for (const std::vector<JobOutcome>& outcomes : executor_outcomes) {
      if (!problem.empty()) break;
      if (!outcomes[i].ok) {
        problem = "executor: " + outcomes[i].error;
      } else if (!SameBits(reference.values, outcomes[i].values)) {
        problem = "executor values differ from the service's";
      }
    }
    if (problem.empty()) continue;
    ++report.failed;
    if (report.problems.size() < 5) {
      report.problems.push_back(jobs[i].name + ": " + problem);
    }
  }
  if (Status nested = CheckNesting(run->spans); !nested.ok()) {
    report.problems.push_back(nested.ToString());
  }

  // Layer self times and the closure over the executor's worker time.
  const std::map<std::string, SpanTotals> totals = Summarize(run->spans);
  auto total = [&totals](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals() : it->second;
  };
  double worker_s = 0.0;
  double layer_self_s = 0.0;
  for (const auto& [name, entry] : totals) {
    if (name == "executor.client") {
      worker_s += entry.seconds;
    } else if (name != "job") {
      layer_self_s += entry.self_seconds;
    }
  }
  const double closure_gap = 1.0 - layer_self_s / worker_s;
  if (!(closure_gap <= kClosureTolerance)) {
    report.problems.push_back("closure gap " + std::to_string(closure_gap) +
                              " exceeds the tolerance " +
                              std::to_string(kClosureTolerance));
  }

  auto& m = report.metrics;
  const SpanTotals build = total("data.build");
  m["data.build_s"] = build.seconds / std::max<size_t>(1, build.count);
  m["core.step_self_s"] = total("core.step").self_seconds;
  m["core.finish_s"] = total("core.finish").self_seconds;
  const SpanTotals snapshot = total("core.snapshot");
  m["core.snapshot_s"] = snapshot.seconds / std::max<size_t>(1, snapshot.count);
  m["core.snapshot_bytes"] = static_cast<double>(run->snapshot_bytes) /
                             std::max<size_t>(1, run->snapshots);
  double evaluations = 0.0;
  for (const JobOutcome& outcome : run->outcomes) {
    evaluations += static_cast<double>(outcome.evaluations);
  }
  m["core.evaluations"] = evaluations;

  double hits = 0.0;
  double misses = 0.0;
  double trained_s = 0.0;
  std::vector<EvaluationTotals> evaluation_totals;
  for (const auto& [key, tenant] : run->tenants) {
    if (!tenant->built) continue;
    hits += static_cast<double>(tenant->cache->hits());
    misses += static_cast<double>(tenant->cache->misses());
    evaluation_totals.push_back(tenant->traced->totals());
    trained_s += evaluation_totals.back().local_s +
                 evaluation_totals.back().worker_cost_s;
  }
  m["fl.cache.hits"] = hits;
  m["fl.cache.misses"] = misses;
  m["fl.cache.hit_ratio"] = hits / std::max(1.0, hits + misses);

  m["service.submit_s"] = service.submit_s / std::max<size_t>(1, jobs.size());
  m["service.slices"] = static_cast<double>(service.slices);
  m["service.tax_share"] = 1.0 - trained_s / (service.wall_s * kWorkers);

  m["trace.overhead_share"] = traced_wall_s / untraced_wall_s - 1.0;
  m["trace.closure_gap_share"] = closure_gap;

  ReplayCacheHits(*run, report);
  FEDSHAP_RETURN_NOT_OK(ReplayStore(*run, work_dir, report));
  FEDSHAP_RETURN_NOT_OK(ReplayFedAvg(*run, report));
  if (plan.shards > 0) {
    SetClusterMetrics(evaluation_totals, run->wall_s, plan.shards, report);
  } else {
    FEDSHAP_RETURN_NOT_OK(ReplayCluster(*run, report));
  }
  std::vector<Span> replay_spans = Tracer::Get().Take();

  FEDSHAP_RETURN_NOT_OK(WriteChromeTrace({{1, std::move(service_spans)},
                                          {2, std::move(run->spans)},
                                          {3, std::move(replay_spans)}},
                                         trace_out));
  return report;
}

}  // namespace perfbench
