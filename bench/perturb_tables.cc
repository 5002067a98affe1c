// Schedule-perturbation determinism check (src/sim/krace.h).
//
// The discrete-event engine's ONLY schedule freedom is the order of
// same-timestamp events; SetPerturbSeed re-keys that tie-break by a seeded
// hash, and every resulting permutation is a legal schedule.  A correct
// kernel model therefore produces IDENTICAL results under every seed: this
// bench renders Tables 1 and 2 (printed rows plus an exact hex-float dump
// of every underlying measurement and ledger field) at seed 0 and at eight
// perturbation seeds, and requires the blobs to be byte-identical.  Any
// divergence is an ordering bug — a result that silently depended on a
// tie-break the kernel never promised — not a flake.
//
// The krace detector runs in abort mode throughout, so a happens-before
// race found under any perturbed schedule kills the run with both sites.
//
// Usage: perturb_tables [mb] [seeds]   (defaults: 8 MB, 8 seeds)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench/bench_common.h"
#include "src/metrics/tables.h"
#include "src/sim/sim_state.h"

namespace {

void DumpResult(std::ostringstream& out, const char* label,
                const ikdp::ExperimentResult& e) {
  // %a (hex float) is exact: two runs that differ below printf's %.1f
  // rounding still fail the comparison.
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s ok=%d bytes=%lld elapsed=%a tput=%a ops=%lld slow=%a "
                "idle=%a proc=%lld switch=%lld intr=%lld nsw=%llu nint=%llu "
                "hits=%llu misses=%llu transients=%llu\n",
                label, e.ok ? 1 : 0, static_cast<long long>(e.bytes),
                e.elapsed_s, e.throughput_kbs,
                static_cast<long long>(e.test_ops), e.slowdown,
                e.idle_fraction, static_cast<long long>(e.cpu.process_work),
                static_cast<long long>(e.cpu.context_switch),
                static_cast<long long>(e.cpu.interrupt_work),
                static_cast<unsigned long long>(e.cpu.switches),
                static_cast<unsigned long long>(e.cpu.interrupts),
                static_cast<unsigned long long>(e.cache_hits),
                static_cast<unsigned long long>(e.cache_misses),
                static_cast<unsigned long long>(e.splice_transients));
  out << buf;
}

// Runs both tables under the CURRENT perturbation seed and renders
// everything comparable about them into one string.
std::string RenderTables(int64_t bytes) {
  std::ostringstream out;
  const auto t1 = ikdp::RunTable1(bytes);
  ikdp::PrintTable1(out, t1);
  for (const auto& r : t1) {
    DumpResult(out, "t1.cp", r.cp);
    DumpResult(out, "t1.scp", r.scp);
  }
  const auto t2 = ikdp::RunTable2(bytes);
  ikdp::PrintTable2(out, t2);
  for (const auto& r : t2) {
    DumpResult(out, "t2.cp", r.cp);
    DumpResult(out, "t2.scp", r.scp);
  }
  bool ledger = true;
  for (const auto& r : t1) {
    ledger = ikdp::bench::LedgerOk(r.cp, "table1 cp") && ledger;
    ledger = ikdp::bench::LedgerOk(r.scp, "table1 scp") && ledger;
  }
  for (const auto& r : t2) {
    ledger = ikdp::bench::LedgerOk(r.cp, "table2 cp") && ledger;
    ledger = ikdp::bench::LedgerOk(r.scp, "table2 scp") && ledger;
  }
  out << "ledger " << (ledger ? "ok" : "BROKEN") << "\n";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int64_t mb = ikdp::bench::ParseMb(argc, argv);
  int seeds = 8;
  if (argc > 2) {
    seeds = std::atoi(argv[2]);
    if (seeds < 1) {
      seeds = 1;
    }
  }
  std::printf(
      "ikdp bench: tie-break perturbation determinism "
      "(file size %lld MB, %d seed(s), krace abort mode)\n\n",
      static_cast<long long>(mb), seeds);

  // Abort on the first happens-before race anywhere in the runs below.
  ikdp::Krace().SetMode(ikdp::KraceDetector::Mode::kAbort);

  ikdp::Krace().SetPerturbSeed(0);
  const std::string baseline = RenderTables(mb << 20);
  std::printf("--- baseline (seed 0, insertion-order tie-break) ---\n%s\n",
              baseline.c_str());

  ikdp::bench::CheckList checks;
  for (int s = 1; s <= seeds; ++s) {
    ikdp::Krace().SetPerturbSeed(static_cast<uint64_t>(s));
    const std::string perturbed = RenderTables(mb << 20);
    char what[64];
    std::snprintf(what, sizeof(what), "seed %d byte-identical to baseline", s);
    checks.Check(perturbed == baseline, what);
    if (perturbed != baseline) {
      // Show the first differing line: that row's quantity is
      // schedule-dependent.
      std::istringstream a(baseline), b(perturbed);
      std::string la, lb;
      int line = 1;
      while (std::getline(a, la) && std::getline(b, lb)) {
        if (la != lb) {
          std::printf("  first divergence, line %d:\n   seed 0: %s\n   seed %d: %s\n",
                      line, la.c_str(), s, lb.c_str());
          break;
        }
        ++line;
      }
    }
  }
  ikdp::Krace().SetPerturbSeed(0);
  ikdp::Krace().SetMode(ikdp::KraceDetector::Mode::kOff);

  std::printf("\nResult: tables are %s under %d tie-break perturbation(s).\n",
              checks.ok ? "SCHEDULE-INDEPENDENT" : "SCHEDULE-DEPENDENT",
              seeds);
  return checks.ok ? 0 : 1;
}
