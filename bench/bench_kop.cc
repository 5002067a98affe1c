// In-kernel operator bench: disk -> filter(90%) -> UDP, in-kernel vs user.
//
// The paper's argument is that moving data MOVEMENT into the kernel buys
// back the CPU that read/write roundtrips burn; kop extends it to data
// COMPUTATION.  This bench puts a number on that: an object whose blocks
// are 90% chaff is streamed from an RZ56 disk to a UDP socket two ways,
// with the paper's CPU-bound test program running concurrently:
//
//   inkernel  kop_load a keep-if-tagged filter, kop_attach it to the
//             source, ONE splice(2).  Chaff dies at interrupt/softclock
//             level; only tagged blocks reach the wire; the process traps
//             a handful of times.
//   user      the classic roundtrip: read(2) each block into user space,
//             test its tag byte, write(2) the survivors to the socket —
//             two traps and a user-space crossing per block.
//
// Both runs must satisfy the CPU attribution closure and kspan balance
// (hard gates), and the in-kernel row must beat the user row on BOTH
// CPU availability (test-program progress per simulated second) and
// syscall traps — the win conditions tools/telemetry_check enforces on
// the emitted BENCH_kop.json (schema ikdp.bench.v1).
//
// `bench_kop small` runs the reduced CI grid (100 blocks).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/dev/disk_driver.h"
#include "src/fs/filesystem.h"
#include "src/hw/disk.h"
#include "src/hw/link.h"
#include "src/kop/kop.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/kspan.h"
#include "src/sim/simulator.h"
#include "src/workload/programs.h"

namespace {

ikdp::bench::CheckList g_checks;

constexpr uint8_t kTag = 0xab;  // first byte of a block the filter keeps
constexpr ikdp::SimDuration kTestOpCost = ikdp::Milliseconds(1);

// Block k is tagged when k % keep_every == 0; the rest of the payload is a
// deterministic pattern that never collides with the tag byte at offset 0.
uint8_t PatternByte(int64_t i, int keep_every) {
  if (i % ikdp::kBlockSize == 0) {
    return (i / ikdp::kBlockSize) % keep_every == 0 ? kTag : 0x00;
  }
  return static_cast<uint8_t>((i * 2654435761u) >> 5 & 0xff);
}

struct ModeResult {
  const char* mode = "?";
  bool ok = false;  // transfer completed, machine quiesced
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t chunks_in = 0;
  int64_t chunks_dropped = 0;
  uint64_t syscall_traps = 0;
  int64_t kop_exec_ns = 0;
  double elapsed_s = 0;
  double goodput_bps = 0;
  double cpu_availability = 0;
  bool closure_ok = false;
  bool spans_balanced = false;
  std::string err;
};

ModeResult RunMode(bool inkernel, int blocks, int keep_every) {
  ModeResult r;
  r.mode = inkernel ? "inkernel" : "user";
  const int64_t total_bytes = static_cast<int64_t>(blocks) * ikdp::kBlockSize;

  ikdp::Simulator sim;
  ikdp::Kernel kernel(&sim, ikdp::DecStation5000Costs());
  ikdp::DiskDriver disk(&kernel.cpu(), &sim, ikdp::Rz56Params());
  ikdp::FileSystem* fs = kernel.MountFs(&disk, "obj");
  fs->CreateFileInstant("src", total_bytes,
                        [keep_every](int64_t i) { return PatternByte(i, keep_every); });

  // The client side is a host-side datagram sink: a roomy receive buffer
  // absorbs every kept block, so no reader process perturbs the server CPU.
  ikdp::UdpSocket out(&kernel.cpu());
  ikdp::UdpSocket client(&kernel.cpu(), 48 * 1024, total_bytes + 64 * 1024);
  ikdp::NetworkLink wire(&sim, ikdp::EthernetParams());
  out.ConnectTo(&client, &wire);

  ikdp::KspanCollector spans;
  ikdp::AttachKspan(&spans);

  ikdp::TestProgramState test;
  kernel.Spawn("test", [&kernel, &test](ikdp::Process& p) -> ikdp::Task<> {
    co_await ikdp::TestProgram(kernel, p, kTestOpCost, &test);
  });

  ikdp::SimTime end_time = 0;
  kernel.Spawn("xfer", [&](ikdp::Process& p) -> ikdp::Task<> {
    const int src = co_await kernel.Open(p, "obj:src", ikdp::kOpenRead);
    const int sock = kernel.OpenSocket(p, &out);
    if (inkernel) {
      const int id = co_await kernel.KopLoad(p, [&] {
        ikdp::KopProgram prog;
        ikdp::KopStage s;
        s.kind = ikdp::KopStageKind::kFilter;
        s.filter_mode = ikdp::KopFilterMode::kKeepIfEq;
        s.off = 0;
        s.len = 1;
        s.arg = kTag;
        prog.stages.push_back(s);
        return prog;
      }());
      if (id > 0 && co_await kernel.KopAttach(p, src, id) == 0) {
        const int64_t moved = co_await kernel.Splice(p, src, sock, ikdp::kSpliceEof);
        r.ok = moved >= 0;
      }
    } else {
      std::vector<uint8_t> buf;
      r.ok = true;
      for (;;) {
        const int64_t n = co_await kernel.Read(p, src, ikdp::kBlockSize, &buf);
        if (n == 0) {
          break;
        }
        if (n < 0) {
          r.ok = false;
          break;
        }
        ++r.chunks_in;
        r.bytes_in += n;
        if (buf[0] == kTag) {
          if (co_await kernel.Write(p, sock, buf.data(), n) != n) {
            r.ok = false;
            break;
          }
          r.bytes_out += n;
        }
      }
    }
    r.syscall_traps = p.stats().syscall_traps;
    end_time = sim.Now();
    test.stop = true;
  });

  sim.Run();
  ikdp::AttachKspan(nullptr);
  r.ok = r.ok && kernel.cpu().alive() == 0;

  if (inkernel) {
    const ikdp::SpliceEngine::Stats& s = kernel.splice_engine().stats();
    r.chunks_in = static_cast<int64_t>(s.kop_chunks_in);
    r.chunks_dropped = static_cast<int64_t>(s.kop_chunks_dropped);
    r.bytes_in = s.kop_bytes_in;
    r.bytes_out = s.kop_bytes_out;
    r.kop_exec_ns = s.kop_exec_time;
  }
  r.elapsed_s = static_cast<double>(end_time) / 1e9;
  r.goodput_bps = r.elapsed_s > 0 ? static_cast<double>(r.bytes_out) / r.elapsed_s : 0;
  // CPU availability: the fraction of the transfer interval the CPU-bound
  // test program actually progressed, relative to an idle machine.
  r.cpu_availability =
      end_time > 0
          ? std::min(1.0, static_cast<double>(test.ops) * static_cast<double>(kTestOpCost) /
                              static_cast<double>(end_time))
          : 0;
  r.closure_ok = kernel.cpu().CheckAttributionClosure(&r.err);
  std::string span_err;
  r.spans_balanced = spans.CheckBalanced(&span_err) && spans.bad_ends() == 0;
  if (!span_err.empty()) {
    r.err += (r.err.empty() ? "" : "; ") + span_err;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = ikdp::bench::SmallGrid(argc, argv);
  const int blocks = small ? 100 : 1024;
  const int keep_every = 10;  // 90% of the stream is chaff
  const int seed = 1;         // nothing here draws randomness; recorded for the schema

  std::printf("ikdp bench: in-kernel filter vs user roundtrip "
              "(%d blocks of %lld B, keep every %dth, RZ56 -> UDP)\n\n",
              blocks, static_cast<long long>(ikdp::kBlockSize), keep_every);
  std::printf("%-9s %10s %10s %7s %7s %8s %9s %7s %7s\n", "mode", "bytes_in", "bytes_out",
              "chunks", "dropped", "traps", "MB/s", "avail", "kop ms");

  ModeResult rows[2] = {RunMode(/*inkernel=*/true, blocks, keep_every),
                        RunMode(/*inkernel=*/false, blocks, keep_every)};
  ikdp::bench::BenchArtifact artifact("kop");
  artifact.config.Int("object_kb", static_cast<int64_t>(blocks) * ikdp::kBlockSize >> 10)
      .Int("blocks", blocks)
      .Int("keep_every", keep_every)
      .Int("seed", seed);
  for (const ModeResult& r : rows) {
    std::printf("%-9s %10lld %10lld %7lld %7lld %8llu %9.3f %7.3f %7.2f\n", r.mode,
                static_cast<long long>(r.bytes_in), static_cast<long long>(r.bytes_out),
                static_cast<long long>(r.chunks_in), static_cast<long long>(r.chunks_dropped),
                static_cast<unsigned long long>(r.syscall_traps), r.goodput_bps / 1e6,
                r.cpu_availability, static_cast<double>(r.kop_exec_ns) / 1e6);
    if (!r.err.empty()) {
      std::fprintf(stderr, "  [%s] %s\n", r.mode, r.err.c_str());
    }
    artifact.rows.emplace_back()
        .Str("mode", r.mode)
        .Int("bytes_in", r.bytes_in)
        .Int("bytes_out", r.bytes_out)
        .Int("chunks_in", r.chunks_in)
        .Int("chunks_dropped", r.chunks_dropped)
        .Int("syscall_traps", r.syscall_traps)
        .Int("kop_exec_ns", r.kop_exec_ns)
        .Num("elapsed_s", r.elapsed_s, 6)
        .Num("goodput_bps", r.goodput_bps, 1)
        .Num("cpu_availability", r.cpu_availability, 6)
        .Bool("closure_ok", r.closure_ok)
        .Bool("spans_balanced", r.spans_balanced);
  }
  std::printf("\n");

  // BENCH_kop.json is written once the checks below have run: they are its gates.
  const char* out_path = "BENCH_kop.json";
  std::printf("wrote %s\n\n", out_path);

  const ModeResult& ik = rows[0];
  const ModeResult& us = rows[1];
  const int64_t total_bytes = static_cast<int64_t>(blocks) * ikdp::kBlockSize;
  const int64_t kept_blocks = (blocks + keep_every - 1) / keep_every;
  const int64_t kept_bytes = kept_blocks * ikdp::kBlockSize;

  for (const ModeResult& r : rows) {
    char what[160];
    std::snprintf(what, sizeof(what), "%s: transfer completed and machine quiesced", r.mode);
    g_checks.Check(r.ok, what);
    std::snprintf(what, sizeof(what), "%s: every block read (%lld bytes in)", r.mode,
                  static_cast<long long>(total_bytes));
    g_checks.Check(r.bytes_in == total_bytes && r.chunks_in == blocks, what);
    std::snprintf(what, sizeof(what), "%s: exactly the tagged blocks delivered (%lld bytes)",
                  r.mode, static_cast<long long>(kept_bytes));
    g_checks.Check(r.bytes_out == kept_bytes, what);
    std::snprintf(what, sizeof(what), "%s: attribution closure (hard gate)", r.mode);
    g_checks.Check(r.closure_ok, what);
    std::snprintf(what, sizeof(what), "%s: kspans balanced (hard gate)", r.mode);
    g_checks.Check(r.spans_balanced, what);
  }
  g_checks.Check(ik.chunks_dropped == blocks - kept_blocks,
                 "inkernel: 90% of the stream filtered without surfacing");
  g_checks.Check(ik.kop_exec_ns > 0, "inkernel: operator execution time charged");
  g_checks.Check(us.chunks_dropped == 0, "user: nothing dropped in-kernel");
  // The win conditions (mirrored by tools/telemetry_check on the artifact).
  char what[160];
  std::snprintf(what, sizeof(what), "win: inkernel CPU availability %.3f > user %.3f",
                ik.cpu_availability, us.cpu_availability);
  g_checks.Check(ik.cpu_availability > us.cpu_availability, what);
  std::snprintf(what, sizeof(what), "win: inkernel traps %llu < user %llu",
                static_cast<unsigned long long>(ik.syscall_traps),
                static_cast<unsigned long long>(us.syscall_traps));
  g_checks.Check(ik.syscall_traps < us.syscall_traps, what);

  artifact.Write(out_path, &g_checks);
  std::printf("\n%s\n", g_checks.ok ? "ALL CHECKS PASS" : "CHECKS FAILED");
  return g_checks.ok ? 0 : 1;
}
