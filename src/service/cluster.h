#ifndef FEDSHAP_SERVICE_CLUSTER_H_
#define FEDSHAP_SERVICE_CLUSTER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fl/utility.h"
#include "fl/utility_cache.h"
#include "service/job_spec.h"
#include "util/coalition.h"
#include "util/framing.h"
#include "util/status.h"
#include "util/tcp_transport.h"

namespace fedshap {

/// \file
/// Coordinator side of the sharded valuation cluster.
///
/// The coordinator owns all estimator state (plan cursors, moments,
/// snapshots) and its UtilityCache stays the single source of truth for
/// hit/miss and fresh-training accounting. Only the leaf operation — one
/// coalition training — is shipped out: a cache miss becomes an Assign
/// frame to the worker that owns the coalition's shard, and the worker's
/// framed result is applied back into the coordinator cache. Estimator
/// math therefore consumes utilities in exactly the single-process plan
/// order regardless of how result frames race on the wire, which is what
/// keeps values bit-identical at any topology (see
/// docs/ARCHITECTURE.md, "Sharded valuation cluster").
///
/// Workers attach over either transport: socketpair ends adopted with
/// AddWorker() (single-host threads/forks) or TCP connections accepted by
/// ServeListener() (multi-node). Every worker opens its session with a
/// Register frame (protocol version + shard identity + the fingerprints
/// of workloads it already holds); the coordinator validates it, assigns
/// or confirms the shard, and replies Welcome. A disconnected TCP worker
/// reconnects with capped exponential backoff and re-registers under its
/// original shard, so its store and cache stay its shard's.

/// Cluster protocol frame types (FrameChannel `type` field). Payloads are
/// ByteWriter-encoded; see cluster.cc for the per-message layout.
namespace cluster_proto {
// Type 1 (a liveness hello) is retired; do not reuse it.
inline constexpr uint32_t kWorkload = 2;   ///< coord->worker: key, spec, fp
inline constexpr uint32_t kAssign = 3;     ///< coord->worker: task, coalition
inline constexpr uint32_t kResult = 4;     ///< worker->coord: task, utility
inline constexpr uint32_t kError = 5;      ///< worker->coord: task, message
inline constexpr uint32_t kHeartbeat = 6;  ///< worker->coord: liveness
inline constexpr uint32_t kShutdown = 7;   ///< coord->worker: drain and exit
inline constexpr uint32_t kRegister = 8;   ///< worker->coord: handshake
inline constexpr uint32_t kWelcome = 9;    ///< coord->worker: shard grant
inline constexpr uint32_t kReject = 10;    ///< coord->worker: handshake veto
}  // namespace cluster_proto

/// Version of the cluster wire protocol. Bumped whenever a frame layout
/// changes; a worker registering with a different version is rejected
/// before any workload state is exchanged.
inline constexpr uint32_t kClusterProtocolVersion = 2;

/// The registration handshake a worker presents when (re)connecting:
/// protocol version, its shard identity (-1 = new, assign me one), and
/// the fingerprints of workloads it already has built — on reconnect the
/// coordinator verifies them bit-for-bit and skips re-announcing, so the
/// worker resumes its shard home with warm caches.
struct WorkerRegistration {
  uint32_t protocol_version = kClusterProtocolVersion;
  int shard = -1;
  uint64_t pid = 0;
  std::vector<std::pair<std::string, uint64_t>> workloads;
};

/// Wire codec for the Register frame payload.
std::string EncodeWorkerRegistration(const WorkerRegistration& registration);
Result<WorkerRegistration> DecodeWorkerRegistration(std::string_view payload);

/// Counters describing one dispatcher's life so far. All monotonic.
struct ClusterStats {
  size_t workers_added = 0;     ///< Distinct workers ever attached.
  size_t workers_lost = 0;      ///< Workers declared dead (EOF or timeout).
  size_t worker_reconnects = 0;  ///< Re-registrations resuming a shard.
  size_t tasks_dispatched = 0;  ///< Assign frames sent, including re-sends.
  size_t results_applied = 0;   ///< Result frames accepted exactly-once.
  size_t duplicate_results_ignored = 0;  ///< Late/duplicate frames dropped.
  size_t reassigned_coalitions = 0;  ///< In-flight tasks moved off a dead
                                     ///< worker.
  size_t retried_tasks = 0;  ///< Tasks re-sent after the task timeout
                             ///< (dropped-frame recovery).
  size_t worker_fresh_trainings = 0;  ///< Results flagged fresh by the
                                      ///< worker that trained them.
  size_t deadline_expirations = 0;  ///< RPCs that exhausted their
                                    ///< per-attempt deadline budget.
  size_t breaker_trips = 0;   ///< Circuit breakers opened (closed->open).
  size_t breaker_probes = 0;  ///< Cooldowns elapsed (open->half-open).
  size_t degraded_evaluations = 0;  ///< Coalitions trained locally by the
                                    ///< coordinator because no worker was
                                    ///< available within the grace window.
  /// Summed seconds shards spent dead before a reconnect resumed them
  /// (recovery_seconds_total / worker_reconnects = mean outage).
  double recovery_seconds_total = 0.0;
};

/// Coordinator-side dispatcher: owns the worker connections, the
/// coalition->shard map and the in-flight task table.
///
/// Sharding is by `Coalition::Hash() % shard slots`: the divisor is the
/// total number of shards ever created, never the live count, so a
/// coalition's home shard is stable across worker deaths and every
/// worker's store only ever sees its own shard's coalitions. When a
/// worker dies its in-flight tasks fail over to the next live shard;
/// results arriving late for an already-completed task (duplicate
/// delivery, a resurrected frame) are ignored idempotently — a task id is
/// completed at most once, and the coordinator cache's single-flight
/// keyed by coalition fingerprint makes retrained duplicates converge on
/// the same record.
///
/// Resilience policy, all deterministic given a fault schedule:
///  - every RPC attempt gets `rpc_deadline_ms`; on expiry the task is
///    re-dispatched (up to `max_task_attempts`) and the slow worker's
///    breaker records a failure;
///  - `breaker_trip_threshold` consecutive failures open a per-worker
///    circuit breaker, making the worker unschedulable for
///    `breaker_cooldown_ms`; the cooldown elapsing half-opens it (a
///    probe), whose first result closes or re-opens it;
///  - when no schedulable worker exists for `degraded_grace_ms`,
///    Evaluate fails with Unavailable — the signal ClusterUtility turns
///    into a local (coordinator-side) training, so the service keeps
///    producing bit-identical values through a total partition. The
///    first expired window latches the outage: later evaluations fail
///    fast instead of each waiting a window of its own, until a worker
///    (re)registers or a breaker cooldown makes one schedulable again.
///
/// Thread-safe; Evaluate() may be called from many coordinator threads.
class ClusterDispatcher {
 public:
  struct Options {
    /// A worker silent for longer than this is declared dead and its
    /// in-flight coalitions are reassigned. Workers heartbeat every
    /// ~200ms, so the default tolerates long GC-less trainings.
    int heartbeat_timeout_ms = 10000;
    /// When > 0, a task unanswered for this long is re-sent to its
    /// worker (recovers a dropped result frame: the worker's cache makes
    /// the re-run a hit). 0 disables timeout-driven retry.
    int task_retry_ms = 0;
    /// When > 0, each dispatch of an RPC may wait at most this long for
    /// its result before the attempt is abandoned (deadline expiry: a
    /// breaker failure for the worker, a re-dispatch for the task).
    /// 0 waits forever (worker death still fails over via heartbeat).
    int rpc_deadline_ms = 0;
    /// Re-dispatches an RPC gets before failing with DeadlineExceeded.
    int max_task_attempts = 5;
    /// Consecutive per-worker failures that open its circuit breaker.
    /// 0 disables the breaker.
    int breaker_trip_threshold = 3;
    /// How long an open breaker keeps its worker unschedulable before a
    /// half-open probe is allowed.
    int breaker_cooldown_ms = 1000;
    /// How long Evaluate waits for any schedulable worker to (re)appear
    /// before giving up with Unavailable (the degraded-mode trigger).
    /// 0 degrades immediately.
    int degraded_grace_ms = 0;
  };

  /// Inputs to the monitor's unified deadline computation: for each
  /// timer class, milliseconds until its earliest pending deadline
  /// (negative = nothing pending in that class).
  struct MonitorDeadlines {
    int heartbeat_ms = -1;  ///< Earliest live worker hits the timeout.
    int retry_ms = -1;      ///< Oldest unanswered task hits task_retry_ms.
    int breaker_ms = -1;    ///< Earliest open breaker finishes cooldown.
  };

  /// The monitor tick: sleep until the earliest pending deadline across
  /// all timer classes, clamped to [10ms, 250ms] so a wrong input can
  /// neither spin nor stall. Pure function of its inputs (unit-tested);
  /// computing the wait from the *actual* earliest deadline — instead of
  /// re-deriving a fixed heuristic tick per loop iteration — is what
  /// guarantees no timer class can starve another.
  static int NextDeadlineMs(const MonitorDeadlines& deadlines);

  ClusterDispatcher() : ClusterDispatcher(Options()) {}
  explicit ClusterDispatcher(const Options& options);
  ~ClusterDispatcher();

  ClusterDispatcher(const ClusterDispatcher&) = delete;
  ClusterDispatcher& operator=(const ClusterDispatcher&) = delete;

  /// Adopts a connected worker channel; its shard index is the number of
  /// shard slots that exist before it. Starts the per-worker receiver
  /// thread. (The socketpair path; TCP workers attach by registering.)
  void AddWorker(std::unique_ptr<FrameChannel> channel);

  /// Serves worker registrations accepted from `listener` (takes
  /// ownership; the accept thread starts immediately).
  void ServeListener(std::unique_ptr<TcpListener> listener);

  /// Binds `endpoint` and serves registrations from it. Returns the
  /// bound port (resolves port 0).
  Result<int> ListenAndServe(const TcpEndpoint& endpoint);

  /// The port ServeListener/ListenAndServe bound (-1 when not listening).
  int listen_port() const;

  /// Announces a workload: workers rebuild the utility from `scenario`
  /// on first assignment and must match `fingerprint` bit-for-bit.
  void RegisterWorkload(const std::string& key, const ScenarioSpec& scenario,
                        uint64_t fingerprint);

  /// Ships one coalition evaluation to its shard's worker and blocks for
  /// the framed result, surviving worker deaths by reassignment and slow
  /// workers by deadline-bounded re-dispatch. Fails with Unavailable
  /// when no schedulable worker exists past the degraded grace window —
  /// the caller's cue to train locally. `worker_fresh` (optional)
  /// reports whether the worker trained fresh.
  Result<UtilityRecord> Evaluate(const std::string& workload_key,
                                 const Coalition& coalition,
                                 bool* worker_fresh = nullptr);

  /// Records one degraded (coordinator-local) evaluation; called by
  /// ClusterUtility when it falls back after an Unavailable.
  void NoteDegradedEvaluation();

  /// Workers currently considered alive.
  size_t live_workers() const;

  ClusterStats stats() const;

  /// Sends Shutdown to every live worker, fails all pending tasks and
  /// joins the receiver/monitor/accept threads. Idempotent; the
  /// destructor calls it.
  void Shutdown();

 private:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  struct WorkerState {
    /// Shared with the receiver thread of the current generation, so a
    /// reconnect can swap in a new channel while a stale receiver is
    /// still unwinding on the old one.
    std::shared_ptr<FrameChannel> channel;
    std::thread receiver;
    uint64_t generation = 0;  ///< Attach count; 0 = slot never connected.
    bool alive = false;
    std::chrono::steady_clock::time_point last_seen;
    std::chrono::steady_clock::time_point died_at;
    std::set<std::string> announced;  // workload keys already sent
    std::set<uint64_t> inflight;      // task ids assigned here
    // Circuit breaker.
    BreakerState breaker = BreakerState::kClosed;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point breaker_open_until;
  };
  struct WorkloadInfo {
    ScenarioSpec scenario;
    uint64_t fingerprint = 0;
  };
  struct PendingTask {
    std::string workload_key;
    Coalition coalition;
    int worker = -1;
    std::chrono::steady_clock::time_point sent_at;
    bool done = false;
    Status error;
    UtilityRecord record{0.0, 0.0};
    bool fresh = false;
  };

  void ReceiverLoop(size_t index, uint64_t generation,
                    std::shared_ptr<FrameChannel> channel);
  void MonitorLoop();
  void AcceptLoop();
  /// Performs the registration handshake on a freshly accepted
  /// connection: validate, attach (new shard or resume), Welcome/Reject.
  void HandleRegistration(std::unique_ptr<FrameChannel> channel);
  /// Validates `registration` against the workload table. Must hold
  /// mutex_.
  Status ValidateRegistrationLocked(const WorkerRegistration& registration);
  void HandleFrame(size_t index, uint64_t generation, const Frame& frame);
  void StartMonitorLocked();
  // All *Locked methods require mutex_ held.
  bool SchedulableLocked(const WorkerState& worker) const;
  bool HasSchedulableWorkerLocked() const;
  /// Waits up to degraded_grace_ms for a schedulable worker — or not at
  /// all while an outage is latched. Returns whether one exists on exit.
  bool WaitForWorkerLocked(std::unique_lock<std::mutex>& lock);
  int PickWorkerLocked(const Coalition& coalition) const;
  Status AssignLocked(uint64_t task_id, PendingTask& task, int worker);
  void MarkWorkerDeadLocked(size_t index);
  void BreakerFailureLocked(size_t index);
  void BreakerSuccessLocked(size_t index);
  void FailTaskLocked(uint64_t task_id, PendingTask& task, Status error);
  MonitorDeadlines ComputeDeadlinesLocked(
      std::chrono::steady_clock::time_point now) const;

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable completed_;
  std::condition_variable monitor_wake_;
  /// Signals worker attach/death/breaker transitions — what degraded
  /// grace waits on.
  std::condition_variable workers_changed_;
  /// Set when a grace window expires with no schedulable worker; cleared
  /// whenever a worker becomes schedulable again. While set, dispatch
  /// degrades immediately, so a total outage costs one grace window.
  bool outage_latched_ = false;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::map<std::string, WorkloadInfo> workloads_;
  std::unordered_map<uint64_t, PendingTask> pending_;
  uint64_t next_task_id_ = 0;
  ClusterStats stats_;
  std::thread monitor_;
  std::unique_ptr<TcpListener> listener_;
  std::thread acceptor_;
  bool stopping_ = false;
  bool shut_down_ = false;
};

/// A UtilityFunction whose evaluations are computed by the cluster: the
/// coordinator's per-workload cache wraps one of these instead of the
/// locally built utility, so every cache miss becomes a remote training
/// on the coalition's shard. Identity (fingerprint, client count) is
/// taken from the locally built `fallback` utility — the remote workers
/// rebuild the exact same workload, which the Workload handshake
/// verifies — and when the dispatcher reports the cluster Unavailable
/// (no schedulable worker past the grace window), the evaluation runs on
/// `fallback` right here: training is deterministic in the workload, not
/// in where it runs, so degraded-mode values stay bit-identical.
class ClusterUtility final : public UtilityFunction {
 public:
  /// `fallback` is the coordinator's locally built utility; not owned,
  /// must outlive this object.
  ClusterUtility(ClusterDispatcher* dispatcher, std::string workload_key,
                 const UtilityFunction* fallback)
      : dispatcher_(dispatcher),
        workload_key_(std::move(workload_key)),
        fallback_(fallback) {}

  int num_clients() const override { return fallback_->num_clients(); }
  uint64_t Fingerprint() const override { return fallback_->Fingerprint(); }
  Result<double> Evaluate(const Coalition& coalition) const override;

 private:
  ClusterDispatcher* dispatcher_;
  std::string workload_key_;
  const UtilityFunction* fallback_;
};

}  // namespace fedshap

#endif  // FEDSHAP_SERVICE_CLUSTER_H_
