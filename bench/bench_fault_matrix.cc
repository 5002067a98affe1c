// Hostile-world fault matrix for the splice data path (docs/faults.md).
//
// Sweeps device-error-rate x link-loss x stream-count x submission mode and
// asserts the error paths hold up under load:
//
//   * no hangs: every process exits, the CPU system drains to idle;
//   * no lost completions: completed + errored streams equals the stream
//     count, and on ring cells every SQE produced exactly one CQE even when
//     streams abort mid-flight;
//   * no buffer leaks: after the run every buffer in the cache can be
//     re-acquired (a stuck B_BUSY header would wedge this probe);
//   * determinism: the zero-fault column behaves exactly like the
//     pre-fault-plan code (contents verified byte-for-byte).
//
// One extra case rides along with every grid: an operator reject that tears
// down a linked ring pipeline while the sibling has a read retry armed
// (RunRejectCase below).
//
// Each cell is a fresh machine: two Rz56 SCSI disks carrying N file->file
// splice streams driven by MultiStreamCopyProgram, plus one file->socket
// splice over a lossy/jittery Ethernet link so the network fault plan is
// exercised in every cell.  Disk fault plans inject probabilistic read and
// write errors and latency spikes; seeds derive from the cell index so the
// whole grid is reproducible run to run.
//
// Emits BENCH_fault.json (schema ikdp.bench.v1, every check below a gate),
// re-parses it with the strict JSON reader, and exits nonzero on any failure.
// `bench_fault_matrix small` runs the reduced CI grid.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/aio/splice_ring.h"
#include "src/dev/disk_driver.h"
#include "src/dev/ram_disk.h"
#include "src/fs/filesystem.h"
#include "src/hw/fault.h"
#include "src/hw/link.h"
#include "src/kop/kop.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/simulator.h"
#include "src/workload/programs.h"

namespace {

using ikdp::bench::ModeName;
ikdp::bench::CheckList g_checks;

struct FaultCell {
  ikdp::SubmitMode mode;
  int n = 0;
  double dev_rate = 0;
  double loss = 0;
  ikdp::MultiStreamResult ms;
  bool relay_done = false;   // the MultiStreamCopyProgram coroutine returned
  bool net_done = false;     // the file->socket splice returned
  bool quiescent = false;    // cpu.alive() == 0 after the run
  bool engine_quiet = false; // no splice descriptors left active
  bool leaks_ok = false;     // every cache buffer re-acquirable afterwards
  bool verified = false;     // zero-device-fault cells only: dst == src
  int64_t net_moved = -2;
  int net_errno = 0;
  uint64_t disk_errors = 0;
  uint64_t disk_spikes = 0;
  uint64_t frames_lost = 0;
  uint64_t frames_jittered = 0;
  uint64_t delwri_data_lost = 0;
  // Observability invariants, checked per cell: the CPU attribution mirror
  // sums exactly to the ledger, and every minted kspan closed exactly once
  // even on the error paths this grid exists to provoke.
  bool closure_ok = false;
  bool spans_balanced = false;
  uint64_t spans_begun = 0;
  std::string span_err;
};

// One fresh machine per cell.  `seed` varies per cell so no two cells share
// a fault RNG stream, but re-running the binary reproduces the grid exactly.
FaultCell RunCell(ikdp::SubmitMode mode, int n, double dev_rate, double loss,
                  int64_t stream_bytes, uint64_t seed) {
  FaultCell cell;
  cell.mode = mode;
  cell.n = n;
  cell.dev_rate = dev_rate;
  cell.loss = loss;

  ikdp::Simulator sim;
  ikdp::Kernel kernel(&sim, ikdp::DecStation5000Costs());
  ikdp::DiskDriver src(&kernel.cpu(), &sim, ikdp::Rz56Params());
  ikdp::DiskDriver dst(&kernel.cpu(), &sim, ikdp::Rz56Params());
  ikdp::FileSystem* src_fs = kernel.MountFs(&src, "src");
  ikdp::FileSystem* dst_fs = kernel.MountFs(&dst, "dst");

  if (dev_rate > 0) {
    ikdp::DiskFaultPlan dp;
    dp.read_error_rate = dev_rate;
    dp.write_error_rate = dev_rate;
    dp.spike_rate = dev_rate / 2;
    dp.spike_delay = ikdp::Milliseconds(5);
    dp.seed = seed;
    src.disk().SetFaultPlan(dp);
    dp.seed = seed + 1;
    dst.disk().SetFaultPlan(dp);
  }

  ikdp::UdpSocket sa(&kernel.cpu());
  ikdp::UdpSocket sb(&kernel.cpu(), 48 * 1024, 1 << 20);
  ikdp::NetworkLink wire(&sim, ikdp::EthernetParams());
  if (loss > 0) {
    ikdp::LinkFaultPlan lp;
    lp.loss_rate = loss;
    lp.jitter_rate = 0.5;
    lp.jitter_max = ikdp::Milliseconds(2);
    lp.seed = seed + 2;
    wire.SetFaultPlan(lp);
  }
  sa.ConnectTo(&sb, &wire);

  auto pattern = [](int stream, int64_t i) {
    return static_cast<uint8_t>(((i * 2654435761u) >> 5 ^ stream * 97) & 0xff);
  };
  std::vector<ikdp::StreamSpec> streams;
  for (int i = 0; i < n; ++i) {
    const std::string name = std::string("s").append(std::to_string(i));
    if (src_fs->CreateFileInstant(name, stream_bytes,
                                  [&pattern, i](int64_t b) { return pattern(i, b); }) ==
        nullptr) {
      return cell;
    }
    ikdp::StreamSpec spec;
    spec.src = "src:" + name;
    spec.dst = "dst:d" + std::to_string(i);
    spec.nbytes = stream_bytes;
    streams.push_back(std::move(spec));
  }
  const int64_t net_bytes = 8 * ikdp::kBlockSize;
  if (src_fs->CreateFileInstant("net", net_bytes,
                                [&pattern](int64_t b) { return pattern(99, b); }) == nullptr) {
    return cell;
  }

  // Record span trees for the whole cell: every splice stream and ring op
  // minted under fault injection must close exactly once (checked below).
  ikdp::KspanCollector spans;
  ikdp::AttachKspan(&spans);

  ikdp::RingConfig ring_config;
  ring_config.sq_entries = 2 * n;
  ring_config.max_inflight = n;
  kernel.Spawn("relay", [&kernel, mode, streams, &cell,
                         ring_config](ikdp::Process& p) -> ikdp::Task<> {
    co_await ikdp::MultiStreamCopyProgram(kernel, p, mode, streams, &cell.ms, ring_config);
    cell.relay_done = true;
  });
  // The side stream: splice the same faulty source disk out the (possibly
  // lossy) wire.  UDP semantics: loss never blocks the sender, so this must
  // finish — with the full byte count or a disk errno — in every cell.
  kernel.Spawn("netsend", [&kernel, &sa, &cell](ikdp::Process& p) -> ikdp::Task<> {
    const int f = co_await kernel.Open(p, "src:net", ikdp::kOpenRead);
    const int sock = kernel.OpenSocket(p, &sa);
    cell.net_moved = co_await kernel.Splice(p, f, sock, ikdp::kSpliceEof);
    if (cell.net_moved < 0) {
      cell.net_errno = co_await kernel.SpliceError(p, f);
    }
    cell.net_done = true;
  });

  sim.Run();
  cell.quiescent = kernel.cpu().alive() == 0;
  cell.engine_quiet = kernel.splice_engine().active() == 0 &&
                      kernel.cache().PendingWrites(&src) == 0 &&
                      kernel.cache().PendingWrites(&dst) == 0;
  cell.disk_errors = src.disk().stats().errors + dst.disk().stats().errors;
  cell.disk_spikes = src.disk().stats().latency_spikes + dst.disk().stats().latency_spikes;
  cell.frames_lost = wire.stats().frames_lost;
  cell.frames_jittered = wire.stats().frames_jittered;
  cell.delwri_data_lost = kernel.cache().stats().delwri_data_lost;

  // Leak probe: with the fault plans lifted, every buffer header must still
  // be reclaimable.  A header left B_BUSY or stuck on an error path would
  // wedge this loop and show up as a hang.
  src.disk().SetFaultPlan(ikdp::DiskFaultPlan{});
  dst.disk().SetFaultPlan(ikdp::DiskFaultPlan{});
  int reacquired = 0;
  kernel.Spawn("leakprobe", [&kernel, &dst, &reacquired](ikdp::Process& p) -> ikdp::Task<> {
    std::vector<ikdp::Buf*> held;
    for (int i = 0; i < kernel.cache().nbufs(); ++i) {
      held.push_back(co_await kernel.cache().GetBlk(p, &dst, 30000 + i));
      ++reacquired;
    }
    for (ikdp::Buf* b : held) {
      kernel.cache().Brelse(b);
    }
  });
  sim.Run();
  cell.leaks_ok = reacquired == kernel.cache().nbufs() && kernel.cpu().alive() == 0;

  ikdp::AttachKspan(nullptr);
  cell.spans_begun = spans.begun();
  cell.spans_balanced = spans.CheckBalanced(&cell.span_err);
  std::string closure_err;
  cell.closure_ok = kernel.cpu().CheckAttributionClosure(&closure_err);
  if (!cell.closure_ok) {
    cell.span_err += (cell.span_err.empty() ? "" : "; ") + closure_err;
  }

  if (dev_rate == 0) {
    kernel.cache().FlushAllInstant();
    bool ok = cell.ms.ok;
    for (int i = 0; i < n && ok; ++i) {
      ikdp::Inode* ip = dst_fs->Lookup(std::string("d").append(std::to_string(i)));
      if (ip == nullptr || ip->size != stream_bytes) {
        ok = false;
        break;
      }
      const std::vector<uint8_t> back = dst_fs->ReadFileInstant(ip);
      for (int64_t b = 0; b < stream_bytes; ++b) {
        if (back[static_cast<size_t>(b)] != pattern(i, b)) {
          ok = false;
          break;
        }
      }
    }
    cell.verified = ok;
  }
  return cell;
}

// The reject-with-armed-retry case: a ring pipeline file -> pipe -> file on
// RAM disks whose first stage carries an operator that rejects the stream
// at block 4.  The second stage reads the pipe, which is empty until the
// first stage writes, so it has a read retry armed when the reject cancels
// it; the retry's queued body must not touch the torn-down descriptor, and
// each SQE must still produce exactly one CQE.
struct RejectCase {
  int cqes = -1;
  int reject_errno = 0;   // stage 1's CQE
  int sibling_errno = 0;  // stage 2's CQE
  bool quiescent = false;
  bool engine_quiet = false;
  bool leaks_ok = false;
  bool spans_balanced = false;
  bool closure_ok = false;
};

RejectCase RunRejectCase() {
  RejectCase rc;
  ikdp::Simulator sim;
  ikdp::Kernel kernel(&sim, ikdp::DecStation5000Costs());
  ikdp::RamDisk src(&kernel.cpu(), 4 << 20);
  ikdp::RamDisk dst(&kernel.cpu(), 4 << 20);
  ikdp::FileSystem* src_fs = kernel.MountFs(&src, "src");
  kernel.MountFs(&dst, "dst");
  constexpr int64_t kBytes = 16 * ikdp::kBlockSize;
  src_fs->CreateFileInstant("f", kBytes, [](int64_t i) -> uint8_t {
    return i == 4 * ikdp::kBlockSize ? 0xee : 0x00;
  });
  ikdp::KopProgram abort_on_ee;
  ikdp::KopStage stage;
  stage.kind = ikdp::KopStageKind::kFilter;
  stage.filter_mode = ikdp::KopFilterMode::kAbortIfEq;
  stage.off = 0;
  stage.len = 1;
  stage.arg = 0xee;
  abort_on_ee.stages.push_back(stage);

  ikdp::KspanCollector spans;
  ikdp::AttachKspan(&spans);
  std::vector<ikdp::SpliceCqe> cqes(4);
  kernel.Spawn("pipeline", [&](ikdp::Process& p) -> ikdp::Task<> {
    const int ring = co_await kernel.RingSetup(p, ikdp::RingConfig{});
    const int in = co_await kernel.Open(p, "src:f", ikdp::kOpenRead);
    const int out = co_await kernel.Open(p, "dst:g", ikdp::kOpenWrite | ikdp::kOpenCreate);
    int pr = -1;
    int pw = -1;
    co_await kernel.CreatePipe(p, &pr, &pw);
    ikdp::SpliceSqe s1;
    s1.src_fd = in;
    s1.dst_fd = pw;
    s1.nbytes = kBytes;
    s1.flags = ikdp::kSqeLinked;
    s1.cookie = 1;
    s1.kop_id = co_await kernel.KopLoad(p, abort_on_ee);
    ikdp::SpliceSqe s2;
    s2.src_fd = pr;
    s2.dst_fd = out;
    s2.nbytes = kBytes;
    s2.cookie = 2;
    kernel.RingPrepare(p, ring, s1);
    kernel.RingPrepare(p, ring, s2);
    co_await kernel.RingEnter(p, ring, 2, 2);
    rc.cqes = kernel.RingHarvest(p, ring, cqes.data(), 4);
  });
  sim.Run();
  rc.quiescent = kernel.cpu().alive() == 0;
  rc.engine_quiet = kernel.splice_engine().active() == 0;
  for (int i = 0; i < rc.cqes; ++i) {
    const ikdp::SpliceCqe& c = cqes[static_cast<size_t>(i)];
    (c.cookie == 1 ? rc.reject_errno : rc.sibling_errno) = c.error;
  }
  int reacquired = 0;
  kernel.Spawn("leakprobe", [&kernel, &dst, &reacquired](ikdp::Process& p) -> ikdp::Task<> {
    std::vector<ikdp::Buf*> held;
    for (int i = 0; i < kernel.cache().nbufs(); ++i) {
      held.push_back(co_await kernel.cache().GetBlk(p, &dst, 300 + i));
      ++reacquired;
    }
    for (ikdp::Buf* b : held) {
      kernel.cache().Brelse(b);
    }
  });
  sim.Run();
  ikdp::AttachKspan(nullptr);
  rc.leaks_ok = reacquired == kernel.cache().nbufs();
  std::string err;
  rc.spans_balanced = spans.begun() > 0 && spans.CheckBalanced(&err);
  rc.closure_ok = kernel.cpu().CheckAttributionClosure(&err);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = ikdp::bench::SmallGrid(argc, argv);
  const int64_t stream_bytes = 16 * ikdp::kBlockSize;

  const std::vector<double> dev_rates =
      small ? std::vector<double>{0.0, 0.2} : std::vector<double>{0.0, 0.05, 0.2};
  const std::vector<double> losses = {0.0, 0.25};
  const std::vector<int> ns = small ? std::vector<int>{2} : std::vector<int>{1, 4};
  const std::vector<ikdp::SubmitMode> modes = {
      ikdp::SubmitMode::kSyncLoop, ikdp::SubmitMode::kFasyncSigio, ikdp::SubmitMode::kRing};

  std::printf("ikdp bench: splice fault matrix (%s grid, %lld KB/stream, Rz56 SCSI)\n\n",
              small ? "small" : "full", static_cast<long long>(stream_bytes >> 10));
  std::printf("%-7s %2s %5s %5s %5s %4s %4s %6s %7s %5s %6s %6s\n", "mode", "N", "erate",
              "loss", "done", "err", "cqes", "dkerr", "lost", "jit", "net", "flags");

  ikdp::bench::BenchArtifact artifact("fault_matrix");
  artifact.config.Str("grid", small ? "small" : "full").Int("stream_kb", stream_bytes >> 10);
  std::vector<FaultCell> cells;
  uint64_t idx = 0;
  for (double e : dev_rates) {
    for (double l : losses) {
      for (int n : ns) {
        for (ikdp::SubmitMode mode : modes) {
          FaultCell c = RunCell(mode, n, e, l, stream_bytes, 17 * ++idx + 3);
          char flags[8] = "";
          std::snprintf(flags, sizeof(flags), "%c%c%c%c", c.quiescent ? 'q' : '-',
                        c.engine_quiet ? 'e' : '-', c.leaks_ok ? 'b' : '-',
                        (e > 0 || c.verified) ? 'v' : '-');
          std::printf("%-7s %2d %5.2f %5.2f %5d %4d %4d %6llu %7llu %5llu %6lld %6s\n",
                      ModeName(mode), n, e, l, c.ms.streams_completed, c.ms.streams_errored,
                      c.ms.ring_cqes, static_cast<unsigned long long>(c.disk_errors),
                      static_cast<unsigned long long>(c.frames_lost),
                      static_cast<unsigned long long>(c.frames_jittered),
                      static_cast<long long>(c.net_moved), flags);
          artifact.rows.emplace_back()
              .Str("mode", ModeName(mode))
              .Int("n", n)
              .Num("dev_rate", e, 2)
              .Num("loss", l, 2)
              .Int("completed", c.ms.streams_completed)
              .Int("errored", c.ms.streams_errored)
              .Int("first_errno", c.ms.first_errno)
              .Int("ring_cqes", c.ms.ring_cqes)
              .Int("bytes", c.ms.bytes)
              .Num("elapsed_s", c.ms.ElapsedSeconds(), 6)
              .Int("traps", c.ms.syscall_traps)
              .Int("disk_errors", c.disk_errors)
              .Int("disk_spikes", c.disk_spikes)
              .Int("frames_lost", c.frames_lost)
              .Int("frames_jittered", c.frames_jittered)
              .Int("delwri_data_lost", c.delwri_data_lost)
              .Int("net_moved", c.net_moved)
              .Int("net_errno", c.net_errno)
              .Int("spans", c.spans_begun)
              .Bool("spans_balanced", c.spans_balanced)
              .Bool("closure_ok", c.closure_ok)
              .Bool("quiescent", c.quiescent)
              .Bool("engine_quiet", c.engine_quiet)
              .Bool("leaks_ok", c.leaks_ok)
              .Bool("verified", c.verified);
          cells.push_back(std::move(c));
        }
      }
    }
  }
  std::printf("\n");

  // BENCH_fault.json is written once the checks below have run: they are its gates.
  const char* out_path = "BENCH_fault.json";
  std::printf("wrote %s\n\n", out_path);

  uint64_t faulty_errored = 0;
  uint64_t faulty_disk_errors = 0;
  uint64_t lossy_frames_lost = 0;
  for (const FaultCell& c : cells) {
    char label[128];
    std::snprintf(label, sizeof(label), "%s N=%d e=%.2f l=%.2f", ModeName(c.mode), c.n,
                  c.dev_rate, c.loss);
    char what[192];
    std::snprintf(what, sizeof(what), "%s: no hang (all processes exited)", label);
    g_checks.Check(c.quiescent && c.relay_done && c.net_done, what);
    std::snprintf(what, sizeof(what), "%s: engine quiescent, no pending writes", label);
    g_checks.Check(c.engine_quiet, what);
    std::snprintf(what, sizeof(what), "%s: no buffer leaks (all %s re-acquired)", label,
                  "headers");
    g_checks.Check(c.leaks_ok, what);
    std::snprintf(what, sizeof(what), "%s: no lost completions (done+err == N)", label);
    g_checks.Check(c.ms.streams_completed + c.ms.streams_errored == c.n, what);
    std::snprintf(what, sizeof(what), "%s: every kspan closed exactly once (%llu spans)",
                  label, static_cast<unsigned long long>(c.spans_begun));
    g_checks.Check(c.spans_balanced && c.spans_begun > 0, what);
    std::snprintf(what, sizeof(what), "%s: CPU attribution closes on the ledger", label);
    g_checks.Check(c.closure_ok, what);
    if (!c.span_err.empty()) {
      std::fprintf(stderr, "  [%s] %s\n", label, c.span_err.c_str());
    }
    if (c.mode == ikdp::SubmitMode::kRing) {
      std::snprintf(what, sizeof(what), "%s: one CQE per SQE", label);
      g_checks.Check(c.ms.ring_cqes == c.n, what);
    }
    if (c.dev_rate == 0) {
      std::snprintf(what, sizeof(what), "%s: zero-fault cell verified byte-for-byte", label);
      g_checks.Check(c.verified && c.ms.ok, what);
      std::snprintf(what, sizeof(what), "%s: zero-fault cell drew no disk errors", label);
      g_checks.Check(c.disk_errors == 0 && c.ms.streams_errored == 0, what);
      std::snprintf(what, sizeof(what), "%s: side stream moved every byte", label);
      g_checks.Check(c.net_moved == 8 * ikdp::kBlockSize, what);
    } else {
      faulty_errored += static_cast<uint64_t>(c.ms.streams_errored);
      faulty_disk_errors += c.disk_errors;
      std::snprintf(what, sizeof(what), "%s: errored streams carry an errno", label);
      g_checks.Check(c.ms.streams_errored == 0 || c.ms.first_errno != 0, what);
      std::snprintf(what, sizeof(what), "%s: side stream finished or errored", label);
      g_checks.Check(c.net_moved == 8 * ikdp::kBlockSize ||
                         (c.net_moved == -1 && c.net_errno != 0),
                     what);
    }
    if (c.loss > 0) {
      lossy_frames_lost += c.frames_lost;
    }
  }
  const RejectCase rc = RunRejectCase();
  std::printf("kop reject with armed retry: cqes %d, errno %d/%d\n", rc.cqes, rc.reject_errno,
              rc.sibling_errno);
  g_checks.Check(rc.cqes == 2 && rc.reject_errno == ikdp::kErrKopReject &&
                     rc.sibling_errno == ikdp::kErrCanceled,
                 "kop reject with armed retry: one CQE per SQE, reject errno, sibling cancelled");
  g_checks.Check(rc.quiescent && rc.engine_quiet && rc.leaks_ok,
                 "kop reject with armed retry: no hang, engine quiescent, no buffer leaks");
  g_checks.Check(rc.spans_balanced && rc.closure_ok,
                 "kop reject with armed retry: spans balanced, attribution closes");

  g_checks.Check(faulty_disk_errors > 0, "fault plans actually injected disk errors");
  g_checks.Check(faulty_errored > 0, "some streams aborted with errno under injection");
  g_checks.Check(lossy_frames_lost > 0, "lossy links actually dropped frames");

  artifact.Write(out_path, &g_checks);
  std::printf("\n%s\n", g_checks.ok ? "ALL CHECKS PASS" : "CHECKS FAILED");
  return g_checks.ok ? 0 : 1;
}
