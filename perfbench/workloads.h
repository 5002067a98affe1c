// The three perfbench workloads and the host-primitive probes.
//
//   copy   the paper's Tables 1 and 2 through RunCopyExperiment
//   churn  a closed loop of freshly spawned cp/scp jobs on two RZ58 disks
//   serve  SpliceServer in ring mode under an open Poisson loop, plus the
//          max_rps rate ladder
//
// Each workload draws its inputs from the seed once, at construction; every
// pass then replays the same inputs on fresh machines.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "perfbench/bench.h"

namespace perfbench {

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // One pass over the inputs on fresh machines.  With `layers` non-null the
  // pass attaches a TraceLog, a TelemetryCollector and a KspanCollector to
  // every machine it can reach and adds their numbers to `layers`.
  virtual Pass Run(Layers* layers, Checks* checks) = 0;

  // Runs once after the timed passes; adds results that need more than one
  // machine (serve's rate ladder) to `first` and prints what the workload
  // reports per cell.
  virtual void Finish(Pass* first, Checks* checks) = 0;
};

std::unique_ptr<Workload> MakeCopy(uint64_t seed);
std::unique_ptr<Workload> MakeChurn(uint64_t seed);
std::unique_ptr<Workload> MakeServe(uint64_t seed);

// Host cost of single simulator primitives, in ns per operation.
void RunProbes(Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
