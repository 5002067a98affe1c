// copy: cp and scp of an 8 MB file on RAM, RZ56 and RZ58, each idle and
// beside the CPU-bound test program -- the twelve cells behind the paper's
// Tables 1 and 2, run through RunCopyExperiment with the tables' settings.
// The inputs are the paper's, so the seed only shuffles the cell order.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/metrics/experiment.h"
#include "src/sim/random.h"

namespace perfbench {
namespace {

using ikdp::DiskKind;

struct Cell {
  DiskKind disk;
  bool splice;
  bool loaded;
  ikdp::ExperimentResult result;
};

// Per disk, what table1_cpu_availability (F, 2 places) and
// table2_throughput (KB/s, 0 places) print for the default 8 MB run.
struct TableRow {
  DiskKind disk;
  const char* f_cp;
  const char* f_scp;
  const char* scp_kbs;
  const char* cp_kbs;
};
constexpr TableRow kTables[] = {
    {DiskKind::kRam, "1.97", "1.58", "3845", "2421"},
    {DiskKind::kRz56, "1.60", "1.08", "944", "872"},
    {DiskKind::kRz58, "1.83", "1.10", "1120", "1060"},
};

std::string Fixed(double v, int places) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", places, v);
  return buf;
}

class Copy : public Workload {
 public:
  explicit Copy(uint64_t seed) {
    for (DiskKind disk : {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58}) {
      for (bool splice : {false, true}) {
        for (bool loaded : {false, true}) {
          cells_.push_back({disk, splice, loaded, {}});
        }
      }
    }
    ikdp::Rng rng(seed);
    for (size_t i = cells_.size() - 1; i > 0; --i) {
      std::swap(cells_[i], cells_[rng.Below(i + 1)]);
    }
  }

  Pass Run(Layers* layers, Checks* checks) override {
    Pass pass;
    Digest digest;
    std::vector<double> kbs[2];    // idle cells, by splice
    std::vector<double> avail[2];  // loaded cells, by splice
    ikdp::KspanCollector spans;
    if (layers != nullptr) {
      ikdp::AttachKspan(&spans);
      pass.setup_s = 0;
    }
    for (Cell& cell : cells_) {
      ikdp::ExperimentConfig cfg;
      cfg.disk = cell.disk;
      cfg.use_splice = cell.splice;
      cfg.with_test_program = cell.loaded;

      // The first trace record is the first process entering the run queue:
      // machine, disks and the 8 MB source file are built by then.
      const Clock::time_point start = Clock::now();
      double setup_s = -1;
      std::unique_ptr<MachineTrace> trace;
      if (layers != nullptr) {
        trace = std::make_unique<MachineTrace>();
        trace->log.AddObserver([&setup_s, start](const ikdp::TraceRecord&) {
          if (setup_s < 0) {
            setup_s = SecondsSince(start);
          }
        });
        cfg.trace = &trace->log;
      }
      uint64_t events = 0;
      cfg.inspect = [&](ikdp::Kernel& k) {
        events = k.sim()->events_executed();
        if (layers != nullptr) {
          layers->AddKernel(k, *trace, k.sim()->Now());
        }
      };
      cell.result = ikdp::RunCopyExperiment(cfg);
      const ikdp::ExperimentResult& r = cell.result;

      ++pass.attempted;
      if (!r.ok) {
        ++pass.failed;
        continue;
      }
      pass.events += events;
      if (layers != nullptr) {
        pass.setup_s += setup_s;
        layers->bytes += r.bytes;
      }
      if (cell.loaded) {
        avail[cell.splice].push_back(1.0 / r.slowdown);
      } else {
        kbs[cell.splice].push_back(r.throughput_kbs);
      }
      for (int64_t v : {r.bytes, r.test_ops, r.cpu.process_work, r.cpu.context_switch,
                        r.cpu.interrupt_work, static_cast<int64_t>(r.cpu.switches),
                        static_cast<int64_t>(r.cpu.interrupts), static_cast<int64_t>(r.cache_hits),
                        static_cast<int64_t>(r.cache_misses)}) {
        digest.Add(v);
      }
      digest.Add(r.elapsed_s);
    }
    if (layers != nullptr) {
      ikdp::AttachKspan(nullptr);
      std::string err;
      checks->Check("copy: every span ended exactly once", spans.CheckBalanced(&err));
      layers->AddSpans(spans);
    }
    pass.fingerprint = digest.value();

    std::vector<double> all_kbs = kbs[0];
    all_kbs.insert(all_kbs.end(), kbs[1].begin(), kbs[1].end());
    std::vector<double> all_avail = avail[0];
    all_avail.insert(all_avail.end(), avail[1].begin(), avail[1].end());
    pass.sim.Set("throughput_kbs", GeoMean(all_kbs), "KB/s");
    pass.sim.Set("cpu_avail", GeoMean(all_avail), "ratio");
    pass.sim.Set("wl.scp_kbs", GeoMean(kbs[1]), "KB/s");
    pass.sim.Set("wl.cp_kbs", GeoMean(kbs[0]), "KB/s");
    pass.sim.Set("wl.avail_scp", GeoMean(avail[1]), "ratio");
    pass.sim.Set("wl.avail_cp", GeoMean(avail[0]), "ratio");
    return pass;
  }

  // Prints the cells in the tables' layout and checks each printed value
  // against what the table benches print.
  void Finish(Pass*, Checks* checks) override {
    std::printf("copy cells (8 MB, cold cache; F = test-program slowdown, avail = 1/F)\n");
    std::printf("  %-5s %-4s %10s %7s %7s\n", "disk", "prog", "idle KB/s", "F", "1/F");
    for (const TableRow& row : kTables) {
      for (bool splice : {true, false}) {
        const Cell& idle = Find(row.disk, splice, false);
        const Cell& loaded = Find(row.disk, splice, true);
        const std::string kbs = Fixed(idle.result.throughput_kbs, 0);
        const std::string f = Fixed(loaded.result.slowdown, 2);
        std::printf("  %-5s %-4s %10s %7s %7.3f\n", ikdp::DiskKindName(row.disk),
                    splice ? "scp" : "cp", kbs.c_str(), f.c_str(), 1.0 / loaded.result.slowdown);
        const std::string label = std::string("copy: ") + ikdp::DiskKindName(row.disk) + " " +
                                  (splice ? "scp" : "cp") + " matches Tables 1 and 2 (" +
                                  (splice ? row.scp_kbs : row.cp_kbs) + " KB/s, F " +
                                  (splice ? row.f_scp : row.f_cp) + ")";
        checks->Check(label, kbs == (splice ? row.scp_kbs : row.cp_kbs) &&
                                 f == (splice ? row.f_scp : row.f_cp));
      }
    }
  }

 private:
  const Cell& Find(DiskKind disk, bool splice, bool loaded) const {
    for (const Cell& c : cells_) {
      if (c.disk == disk && c.splice == splice && c.loaded == loaded) {
        return c;
      }
    }
    return cells_.front();
  }

  std::vector<Cell> cells_;
};

}  // namespace

std::unique_ptr<Workload> MakeCopy(uint64_t seed) { return std::make_unique<Copy>(seed); }

}  // namespace perfbench
