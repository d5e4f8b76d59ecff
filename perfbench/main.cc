// The benchmark binary of the repository benchmark; perfbench/run.py runs it.
//
//   fedshap_perfbench jobs  --workload W --seed S [--scale X]
//       prints the workload's seeded job stream, one JobSpec line each
//   fedshap_perfbench pass  --workload W --seed S [--values-out F]
//                           [--scale X]
//       one untraced run of the stream through ValuationService; prints
//       one JSON object of end-to-end measurements
//   fedshap_perfbench trace --workload W --seed S --work-dir D
//                           --trace-out F [--scale X]
//       the traced run; prints one JSON object of per-layer measurements
//       and writes the spans as Chrome trace-event JSON to F

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "executor.h"
#include "fl/fedavg.h"
#include "service_pass.h"
#include "workloads.h"

namespace {

using perfbench::JobOutcome;

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 0;
  bool has_seed = false;
  double scale = 1.0;
  std::string work_dir;
  std::string values_out;
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "fedshap_perfbench: %s\n"
               "usage: fedshap_perfbench jobs|pass|trace --workload W "
               "--seed S [--scale X] [--work-dir D] [--values-out F] "
               "[--trace-out F]\n",
               problem.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') Usage("bad --seed " + value);
      args.has_seed = true;
    } else if (flag == "--scale") {
      args.scale = std::atof(value.c_str());
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--values-out") {
      args.values_out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !args.has_seed) {
    Usage("--workload and --seed are required");
  }
  if (args.mode == "trace" && (args.work_dir.empty() || args.trace_out.empty())) {
    Usage("trace needs --work-dir and --trace-out");
  }
  return args;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Failed jobs' names and reasons, for the JSON "errors" list (first few).
std::string ErrorList(const std::vector<fedshap::JobSpec>& jobs,
                      const std::vector<JobOutcome>& outcomes) {
  std::string out = "[";
  size_t listed = 0;
  for (size_t i = 0; i < jobs.size() && listed < 5; ++i) {
    if (outcomes[i].ok) continue;
    out += (listed++ == 0 ? "" : ",") +
           JsonString(jobs[i].name + ": " + outcomes[i].error);
  }
  return out + "]";
}

size_t CountFailed(const std::vector<JobOutcome>& outcomes) {
  size_t failed = 0;
  for (const JobOutcome& outcome : outcomes) failed += outcome.ok ? 0 : 1;
  return failed;
}

/// Writes each job's values bit-exactly ("%a"), one job per line, for the
/// cross-run bit-identity check.
bool WriteValues(const std::string& path,
                 const std::vector<fedshap::JobSpec>& jobs,
                 const std::vector<JobOutcome>& outcomes) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < jobs.size(); ++i) {
    std::fprintf(file, "%s", jobs[i].name.c_str());
    if (!outcomes[i].ok) std::fprintf(file, " failed");
    for (double value : outcomes[i].values) std::fprintf(file, " %a", value);
    std::fprintf(file, "\n");
  }
  return std::fclose(file) == 0;
}

int Fail(const fedshap::Status& status) {
  std::fprintf(stderr, "fedshap_perfbench: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  const Args args = ParseArgs(argc, argv);
  // Each training runs on the thread that asked for it, so the compute
  // threads are exactly the kWorkers service workers (and, on cluster
  // workloads, the shards serving their RPCs). Values do not depend on
  // this setting.
  fedshap::SetFedAvgClientParallelism(1);
  fedshap::Result<perfbench::WorkloadPlan> plan =
      perfbench::MakeWorkload(args.workload, args.seed, args.scale);
  if (!plan.ok()) return Fail(plan.status());
  if (args.mode == "jobs") {
    for (const std::string& line : plan->job_lines) {
      std::printf("%s\n", line.c_str());
    }
    return 0;
  }
  fedshap::Result<std::vector<fedshap::JobSpec>> jobs =
      perfbench::ParseJobs(plan->job_lines);
  if (!jobs.ok()) return Fail(jobs.status());

  if (args.mode == "pass") {
    fedshap::Result<perfbench::PassOutcome> pass =
        perfbench::RunServicePass(*plan, *jobs, process_start);
    if (!pass.ok()) return Fail(pass.status());
    if (fedshap::Status checked = perfbench::CheckOutcomes(*jobs, pass->jobs);
        !checked.ok()) {
      return Fail(checked);
    }
    if (!args.values_out.empty() &&
        !WriteValues(args.values_out, *jobs, pass->jobs)) {
      return Fail(fedshap::Status::Internal("cannot write " + args.values_out));
    }
    std::string latencies = "[";
    for (size_t i = 0; i < pass->jobs.size(); ++i) {
      if (!pass->jobs[i].ok) continue;
      latencies += (latencies.size() > 1 ? "," : "") +
                   Number(pass->jobs[i].latency_s);
    }
    latencies += "]";
    std::printf(
        "{\"attempted\":%zu,\"failed\":%zu,\"setup_s\":%s,\"wall_s\":%s,"
        "\"cpu_s\":%s,\"peak_rss_mb\":%s,\"trainings\":%zu,\"slices\":%zu,"
        "\"value_rel_error\":%s,\"reference_workload\":%s,"
        "\"latencies\":%s,\"errors\":%s}\n",
        jobs->size(), CountFailed(pass->jobs), Number(pass->setup_s).c_str(),
        Number(pass->wall_s).c_str(), Number(pass->cpu_s).c_str(),
        Number(pass->peak_rss_mb).c_str(), pass->trainings, pass->slices,
        Number(perfbench::ValueRelError(*jobs, pass->jobs)).c_str(),
        JsonString(plan->reference_workload).c_str(), latencies.c_str(), ErrorList(*jobs, pass->jobs).c_str());
    return 0;
  }

  if (args.mode == "trace") {
    std::error_code ec;
    std::filesystem::create_directories(args.work_dir, ec);
    fedshap::Result<perfbench::TraceReport> report =
        perfbench::RunTraced(*plan, *jobs, args.work_dir, args.trace_out);
    if (!report.ok()) return Fail(report.status());
    std::string metrics = "{";
    for (const auto& [name, value] : report->metrics) {
      metrics += (metrics.size() > 1 ? "," : "") + JsonString(name) + ":" +
                 Number(value);
    }
    metrics += "}";
    std::string problems = "[";
    for (const std::string& problem : report->problems) {
      problems += (problems.size() > 1 ? "," : "") + JsonString(problem);
    }
    problems += "]";
    std::printf("{\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s,"
                "\"problems\":%s}\n",
                report->attempted, report->failed, metrics.c_str(),
                problems.c_str());
    return 0;
  }
  Usage("unknown mode " + args.mode);
}
