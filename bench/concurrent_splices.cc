// Extension bench: multiple simultaneous splices.
//
// The paper notes splice "provides support for multiple simultaneous I/O
// operations" (Section 4) and keeps all transfer state in per-splice
// descriptors precisely so several can be in flight (Section 5.2.1).  Two
// scenarios:
//
//  (a) N splices on N independent disk pairs — aggregate throughput should
//      scale until the CPU (interrupt handlers) saturates;
//  (b) N splices sharing ONE disk pair — the disksort elevator serializes
//      them; aggregate throughput should stay roughly flat while per-splice
//      fairness holds.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/dev/disk_driver.h"
#include "src/hw/disk.h"
#include "src/os/kernel.h"

using namespace ikdp;

namespace {

constexpr int64_t kBytes = 4 << 20;

uint8_t Fill(int64_t i) { return static_cast<uint8_t>(i * 3); }

struct Outcome {
  double aggregate_kbs = 0;
  double min_kbs = 0;
  double max_kbs = 0;
  bool ok = true;
};

Outcome RunConcurrent(int nsplices, bool shared_disks) {
  Simulator sim;
  Kernel kernel(&sim, DecStation5000Costs());
  std::vector<std::unique_ptr<DiskDriver>> disks;
  std::vector<FileSystem*> src_fs;
  std::vector<FileSystem*> dst_fs;
  const int npairs = shared_disks ? 1 : nsplices;
  for (int i = 0; i < npairs; ++i) {
    disks.push_back(std::make_unique<DiskDriver>(&kernel.cpu(), &sim, Rz58Params()));
    disks.push_back(std::make_unique<DiskDriver>(&kernel.cpu(), &sim, Rz58Params()));
    src_fs.push_back(kernel.MountFs(disks[disks.size() - 2].get(), std::string("s").append(std::to_string(i))));
    dst_fs.push_back(kernel.MountFs(disks[disks.size() - 1].get(), std::string("d").append(std::to_string(i))));
  }
  std::vector<SimTime> done(nsplices, -1);
  std::vector<int64_t> moved(nsplices, -1);
  for (int i = 0; i < nsplices; ++i) {
    const int pair = shared_disks ? 0 : i;
    src_fs[pair]->CreateFileInstant(std::string("f").append(std::to_string(i)), kBytes, Fill);
    kernel.Spawn("scp" + std::to_string(i), [&, i, pair](Process& p) -> Task<> {
      const std::string src =
          std::string("s").append(std::to_string(pair)).append(":f").append(std::to_string(i));
      const std::string dst =
          std::string("d").append(std::to_string(pair)).append(":g").append(std::to_string(i));
      const int s = co_await kernel.Open(p, src, kOpenRead);
      const int d = co_await kernel.Open(p, dst, kOpenWrite | kOpenCreate);
      moved[i] = co_await kernel.Splice(p, s, d, kSpliceEof);
      done[i] = sim.Now();
    });
  }
  sim.Run();
  Outcome out;
  out.min_kbs = 1e18;
  for (int i = 0; i < nsplices; ++i) {
    if (moved[i] != kBytes || done[i] <= 0) {
      out.ok = false;
      continue;
    }
    const double kbs = kBytes / 1024.0 / ToSeconds(done[i]);
    out.min_kbs = std::min(out.min_kbs, kbs);
    out.max_kbs = std::max(out.max_kbs, kbs);
  }
  SimTime last = 0;
  for (SimTime t : done) {
    last = std::max(last, t);
  }
  out.aggregate_kbs = nsplices * kBytes / 1024.0 / ToSeconds(last);
  return out;
}

}  // namespace

int main() {
  std::printf("ikdp bench: concurrent splices (%lld MB each, RZ58 disks)\n\n",
              static_cast<long long>(kBytes >> 20));
  std::printf("independent disk pairs:\n");
  std::printf("  %-3s | %-12s | %-10s | %-10s |\n", "N", "aggr KB/s", "min KB/s", "max KB/s");
  std::printf("  ----+--------------+------------+------------+---\n");
  bool all_ok = true;
  for (int n : {1, 2, 4, 8}) {
    const Outcome o = RunConcurrent(n, /*shared_disks=*/false);
    all_ok = all_ok && o.ok;
    std::printf("  %-3d | %10.0f   | %8.0f   | %8.0f   | %s\n", n, o.aggregate_kbs, o.min_kbs,
                o.max_kbs, o.ok ? "verified" : "FAILED");
  }
  std::printf("\nshared disk pair (elevator-serialized):\n");
  std::printf("  %-3s | %-12s | %-10s | %-10s |\n", "N", "aggr KB/s", "min KB/s", "max KB/s");
  std::printf("  ----+--------------+------------+------------+---\n");
  for (int n : {1, 2, 4}) {
    const Outcome o = RunConcurrent(n, /*shared_disks=*/true);
    all_ok = all_ok && o.ok;
    std::printf("  %-3d | %10.0f   | %8.0f   | %8.0f   | %s\n", n, o.aggregate_kbs, o.min_kbs,
                o.max_kbs, o.ok ? "verified" : "FAILED");
  }
  std::printf(
      "\nExpected shape: independent pairs scale aggregate throughput nearly\n"
      "linearly (splice CPU cost per byte is tiny); a shared pair holds aggregate\n"
      "roughly flat while splitting it fairly.\n");
  return all_ok ? 0 : 1;
}
