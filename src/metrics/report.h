// Machine-wide statistics report.
//
// Summarizes everything a Kernel can see — CPU accounting, syscall counts,
// buffer-cache behaviour, per-filesystem activity, splice engine totals —
// as a vmstat/iostat-style block of text.  Benches print it after a run;
// tests use it as a smoke check that accounting stays coherent.

#ifndef SRC_METRICS_REPORT_H_
#define SRC_METRICS_REPORT_H_

#include <iosfwd>

#include "src/os/kernel.h"

namespace ikdp {

// Prints the report for `kernel` at the current simulated time.  Includes a
// trace line (events written / dropped) when a TraceLog is attached and a
// per-disk fault line when injected faults fired.
void PrintMachineReport(std::ostream& os, Kernel& kernel);

// The CPU accounting identity: process work + context switches + interrupt
// work must not exceed elapsed time (the remainder is idle).  Returns the
// idle fraction in [0, 1]; negative values indicate an accounting bug.
double IdleFraction(const Kernel& kernel, SimTime elapsed);

}  // namespace ikdp

#endif  // SRC_METRICS_REPORT_H_
