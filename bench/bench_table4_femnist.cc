/// Reproduces Table IV: SV-based data valuation on the FEMNIST-style
/// workload across n in {3, 6, 10} clients with MLP and CNN FL models.
/// For every algorithm the harness reports the charged time (see the
/// `charged=` field in docs/OPERATIONS.md's log-line glossary), the
/// number of FL trainings, and the relative l2 approximation error
/// against the exact MC-SV ground truth.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "util/table.h"

using namespace fedshap;
using namespace fedshap::bench;

int main(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  PrintRunHeader(
      "Table IV: FEMNIST-like digits, by-writer partition "
      "(time = charged train+eval cost)",
      options);

  for (ModelKind kind : {ModelKind::kMlp, ModelKind::kCnn}) {
    for (int n : {3, 6, 10}) {
      ScenarioRunner runner(MakeFemnistScenario(n, kind, options),
                            options);
      const std::vector<double>& exact = runner.GroundTruth();
      const int gamma = PaperGamma(n);

      ConsoleTable table({"algorithm", "time", "trainings", "error(l2)"});
      for (Algo algo : AllAlgos()) {
        Result<AlgoRun> run = runner.Run(algo, gamma, options.seed + n);
        if (!run.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", AlgoName(algo),
                       run.status().ToString().c_str());
          return 1;
        }
        table.AddRow({AlgoName(algo), TimeCell(*run),
                      std::to_string(run->result.num_trainings),
                      ErrorCell(*run, exact)});
      }
      std::printf("--- %s | gamma=%d | tau=%s/model ---\n",
                  runner.description().c_str(), gamma,
                  FormatSeconds(runner.MeanTrainingCost()).c_str());
      table.Print(std::cout);
      std::printf("\n");
    }
  }
  return 0;
}
