// churn: a closed loop of short copy jobs on two RZ58 disks.
//
// Four lanes each run a list of jobs back to back; every job is a freshly
// spawned process that cp's or scp's one of 32 x 64 KB source files from
// the source disk to its lane's destination on the other disk, and spawns
// the lane's next job as it exits.  The seed picks each job's file and
// program.  The 2 MB source set fits in the 3.2 MB cache, so re-reads hit
// and cp's writes go through delayed writes.  Every destination is checked
// byte for byte when its job ends.
//
// Process history grows to the job count, so this is where per-process
// scans in the scheduler show; sim.ns_per_event is taken over the first and
// the last eighth of the jobs to make that growth visible.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/dev/disk_driver.h"
#include "src/fs/filesystem.h"
#include "src/hw/disk.h"
#include "src/sim/random.h"
#include "src/workload/programs.h"

namespace perfbench {
namespace {

constexpr int kLanes = 4;
constexpr int kFiles = 32;
constexpr int64_t kFileBytes = 64 << 10;
constexpr int kJobs = 1600;

uint8_t SourceByte(int file, int64_t i) {
  return static_cast<uint8_t>(((i * 2654435761u) >> 9) + static_cast<uint64_t>(file) * 37);
}

struct Job {
  int file = 0;
  bool splice = false;
  ikdp::SimTime spawned = 0;
  ikdp::SimTime ended = -1;
  bool ok = false;
};

using Plan = std::vector<std::vector<Job>>;  // per lane, in order

// Host clock and event count when a given number of jobs had finished.
struct Mark {
  Clock::time_point when;
  uint64_t events = 0;
};

struct Machine {
  explicit Machine(Plan p) : plan(std::move(p)) {}

  ikdp::Simulator sim;
  ikdp::Kernel kernel{&sim, ikdp::DecStation5000Costs()};
  std::unique_ptr<ikdp::DiskDriver> src_dev;
  std::unique_ptr<ikdp::DiskDriver> dst_dev;
  ikdp::FileSystem* src_fs = nullptr;
  ikdp::FileSystem* dst_fs = nullptr;
  Plan plan;
  size_t done = 0;
  std::vector<size_t> mark_at;  // job counts to mark, ascending
  std::vector<Mark> marks;
};

std::unique_ptr<ikdp::DiskDriver> Rz58(ikdp::Kernel& k, const char* role) {
  ikdp::DiskParams p = ikdp::Rz58Params();
  p.name += std::string(".") + role;
  return std::make_unique<ikdp::DiskDriver>(&k.cpu(), k.sim(), std::move(p));
}

std::string LaneFile(int lane) { return "l" + std::to_string(lane); }

bool Verify(ikdp::FileSystem* fs, int lane, int file) {
  ikdp::Inode* ip = fs->Lookup(LaneFile(lane));
  if (ip == nullptr || ip->size != kFileBytes) {
    return false;
  }
  const std::vector<uint8_t> back = fs->ReadFileInstant(ip);
  for (int64_t i = 0; i < kFileBytes; ++i) {
    if (back[static_cast<size_t>(i)] != SourceByte(file, i)) {
      return false;
    }
  }
  return true;
}

void SpawnJob(Machine* m, int lane, size_t index);

ikdp::Task<> RunJob(Machine* m, ikdp::Process& p, int lane, size_t index) {
  Job& job = m->plan[static_cast<size_t>(lane)][index];
  const std::string src = "srcfs:s" + std::to_string(job.file);
  const std::string dst = "dstfs:" + LaneFile(lane);
  ikdp::CopyResult r;
  if (job.splice) {
    co_await ikdp::ScpProgram(m->kernel, p, src, dst, &r);
  } else {
    co_await ikdp::CpProgram(m->kernel, p, src, dst, ikdp::kBlockSize, &r);
  }
  job.ended = m->sim.Now();
  job.ok = r.ok && r.bytes == kFileBytes && Verify(m->dst_fs, lane, job.file);
  ++m->done;
  if (m->marks.size() < m->mark_at.size() && m->done == m->mark_at[m->marks.size()]) {
    m->marks.push_back({Clock::now(), m->sim.events_executed()});
  }
  if (index + 1 < m->plan[static_cast<size_t>(lane)].size()) {
    SpawnJob(m, lane, index + 1);
  }
}

void SpawnJob(Machine* m, int lane, size_t index) {
  Job& job = m->plan[static_cast<size_t>(lane)][index];
  job.spawned = m->sim.Now();
  m->kernel.Spawn(job.splice ? "scp" : "cp", [m, lane, index](ikdp::Process& p) {
    return RunJob(m, p, lane, index);
  });
}

class Churn : public Workload {
 public:
  explicit Churn(uint64_t seed) : plan_(kLanes) {
    ikdp::Rng rng(seed);
    for (int j = 0; j < kJobs; ++j) {
      Job job;
      job.file = static_cast<int>(rng.Below(kFiles));
      job.splice = rng.Below(2) == 1;
      plan_[static_cast<size_t>(j % kLanes)].push_back(job);
    }
  }

  Pass Run(Layers* layers, Checks* checks) override {
    Pass pass;
    const Clock::time_point start = Clock::now();
    auto m = std::make_unique<Machine>(plan_);
    std::unique_ptr<MachineTrace> trace;
    ikdp::KspanCollector spans;
    if (layers != nullptr) {
      trace = std::make_unique<MachineTrace>();
      m->kernel.AttachTrace(&trace->log);
      ikdp::AttachKspan(&spans);
    }
    m->src_dev = Rz58(m->kernel, "src");
    m->dst_dev = Rz58(m->kernel, "dst");
    m->src_fs = m->kernel.MountFs(m->src_dev.get(), "srcfs");
    m->dst_fs = m->kernel.MountFs(m->dst_dev.get(), "dstfs");
    for (int f = 0; f < kFiles; ++f) {
      m->src_fs->CreateFileInstant("s" + std::to_string(f), kFileBytes,
                                   [f](int64_t i) { return SourceByte(f, i); });
    }
    const size_t eighth = kJobs / 8;
    m->mark_at = {eighth, kJobs - eighth, kJobs};
    for (int lane = 0; lane < kLanes; ++lane) {
      SpawnJob(m.get(), lane, 0);
    }
    pass.setup_s = SecondsSince(start);
    const Clock::time_point run_start = Clock::now();
    m->sim.Run();
    if (layers != nullptr) {
      ikdp::AttachKspan(nullptr);
    }

    std::string err;
    checks->Check("churn: CPU attribution closure", m->kernel.cpu().CheckAttributionClosure(&err));
    checks->Check("churn: every job process exited", m->kernel.cpu().alive() == 0);

    Digest digest;
    std::vector<double> latency_ms;
    int64_t bytes[2] = {0, 0};
    ikdp::SimDuration busy[2] = {0, 0};  // summed job time, by splice
    for (const std::vector<Job>& lane : m->plan) {
      for (const Job& job : lane) {
        ++pass.attempted;
        if (!job.ok) {
          ++pass.failed;
          continue;
        }
        bytes[job.splice] += kFileBytes;
        busy[job.splice] += job.ended - job.spawned;
        latency_ms.push_back(static_cast<double>(job.ended - job.spawned) / 1e6);
        digest.Add(job.spawned);
        digest.Add(job.ended);
      }
    }
    const ikdp::CpuSystem::Stats& cpu = m->kernel.cpu().stats();
    const ikdp::SimTime end = m->sim.Now();
    for (int64_t v : {end, cpu.process_work, cpu.context_switch, cpu.interrupt_work,
                      static_cast<int64_t>(cpu.switches), static_cast<int64_t>(cpu.interrupts)}) {
      digest.Add(v);
    }
    pass.fingerprint = digest.value();
    pass.events = m->sim.events_executed();

    auto kbs = [](int64_t b, ikdp::SimDuration t) {
      return t > 0 ? static_cast<double>(b) / 1024.0 / ikdp::ToSeconds(t) : 0.0;
    };
    const double busy_frac =
        static_cast<double>(cpu.process_work + cpu.context_switch + cpu.interrupt_work) /
        static_cast<double>(end);
    pass.sim.Set("throughput_kbs", kbs(bytes[0] + bytes[1], busy[0] + busy[1]), "KB/s");
    pass.sim.Set("cpu_avail", 1.0 - busy_frac, "ratio");
    pass.sim.Set("wl.scp_kbs", kbs(bytes[1], busy[1]), "KB/s");
    pass.sim.Set("wl.cp_kbs", kbs(bytes[0], busy[0]), "KB/s");
    pass.sim.Set("wl.req_p50_ms", Percentile(latency_ms, 0.5), "sim_ms");
    pass.sim.Set("wl.req_p99_ms", Percentile(latency_ms, 0.99), "sim_ms");
    pass.sim.Set("wl.req_samples", static_cast<double>(latency_ms.size()), "count");

    if (m->marks.size() == 3) {
      auto ns_per_event = [&](const Mark& from, const Mark& to) {
        const double s = std::chrono::duration<double>(to.when - from.when).count();
        return s * 1e9 / static_cast<double>(std::max<uint64_t>(1, to.events - from.events));
      };
      const Mark zero{run_start, 0};
      pass.host.Set("sim.ns_per_event.first", ns_per_event(zero, m->marks[0]), "ns");
      pass.host.Set("sim.ns_per_event.last", ns_per_event(m->marks[1], m->marks[2]), "ns");
    }

    if (layers != nullptr) {
      layers->AddKernel(m->kernel, *trace, end);
      layers->bytes += bytes[0] + bytes[1];
      checks->Check("churn: every span ended exactly once", spans.CheckBalanced(&err));
      layers->AddSpans(spans);
    }
    return pass;
  }

  void Finish(Pass* first, Checks*) override {
    std::printf("churn: %d jobs in %d lanes, %d x %lld KB sources on RZ58 -> RZ58\n", kJobs,
                kLanes, kFiles, static_cast<long long>(kFileBytes >> 10));
    std::printf("  job latency (spawn to exit) p50 %.3f ms, p99 %.3f ms over %.0f jobs "
                "(%zu beyond p99)\n",
                first->sim.Get("wl.req_p50_ms"), first->sim.Get("wl.req_p99_ms"),
                first->sim.Get("wl.req_samples"),
                Beyond(static_cast<size_t>(first->sim.Get("wl.req_samples")), 0.99));
  }

 private:
  Plan plan_;
};

}  // namespace

std::unique_ptr<Workload> MakeChurn(uint64_t seed) { return std::make_unique<Churn>(seed); }

}  // namespace perfbench
