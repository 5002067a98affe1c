// Async relay: 8 concurrent disk-to-UDP streams driven through ONE splice
// ring, versus the same work as sequential synchronous splices.
//
// A server machine holds 8 media files and feeds 8 clients, each over its
// own 10 Mbit/s Ethernet link.  The synchronous server splices one stream
// at a time: stream k+1 cannot start until stream k's wire drains, so total
// time is the SUM of the per-stream times.  The ring server prepares all 8
// SQEs and submits them with a single ring_enter trap; the streams overlap
// and total time collapses toward the SLOWEST single stream — with the
// relay process asleep in one syscall the whole while.  A CPU-bound compute
// job shares the server to show the relay's own footprint: whatever cycles
// the streams don't need (kernel I/O runs from interrupt/softclock context,
// the paper's availability mechanism) go to it, in either mode.
//
// Each client verifies every byte of its stream; the example exits nonzero
// if any byte is wrong, any stream is short, or the ring server fails to
// beat the synchronous one on elapsed time and kernel entries.
//
// Run: build/examples/async_relay

#include <cstdio>
#include <string>
#include <vector>

#include "src/dev/ram_disk.h"
#include "src/os/kernel.h"

using namespace ikdp;

namespace {

constexpr int kStreams = 8;
constexpr int64_t kFileBytes = 32 * kBlockSize;  // 256 KB per stream

uint8_t Fill(int stream, int64_t i) {
  return static_cast<uint8_t>((i * 40503u + 13) >> 3 ^ stream * 97) & 0xff;
}

struct Outcome {
  int64_t bytes = 0;          // delivered across all clients
  bool content_ok = true;
  int streams_done = 0;
  double elapsed_s = 0;
  int64_t compute_ops = 0;    // progress of the co-resident compute job
  uint64_t relay_traps = 0;   // kernel entries paid by the relay process
};

Outcome RunRelay(bool use_ring) {
  Simulator sim;
  Kernel server(&sim, DecStation5000Costs());
  Kernel client(&sim, DecStation5000Costs());

  RamDisk disk(&server.cpu(), 16 << 20);
  FileSystem* fs = server.MountFs(&disk, "media");
  for (int i = 0; i < kStreams; ++i) {
    fs->CreateFileInstant(std::string("f").append(std::to_string(i)), kFileBytes,
                          [i](int64_t j) { return Fill(i, j); });
  }

  // One private wire per client: the streams contend only for the server's
  // CPU and disk, never for each other's bandwidth.
  std::vector<std::unique_ptr<UdpSocket>> server_socks;
  std::vector<std::unique_ptr<UdpSocket>> client_socks;
  std::vector<std::unique_ptr<NetworkLink>> wires;
  for (int i = 0; i < kStreams; ++i) {
    server_socks.push_back(std::make_unique<UdpSocket>(&server.cpu()));
    client_socks.push_back(std::make_unique<UdpSocket>(&client.cpu(), 48 * 1024, 256 * 1024));
    wires.push_back(std::make_unique<NetworkLink>(&sim, EthernetParams()));
    server_socks.back()->ConnectTo(client_socks[static_cast<size_t>(i)].get(),
                                   wires.back().get());
  }

  Outcome outcome;
  bool stream_done = false;

  Process* relay = server.Spawn("relay", [&, use_ring](Process& p) -> Task<> {
    std::vector<int> src(kStreams);
    std::vector<int> dst(kStreams);
    for (int i = 0; i < kStreams; ++i) {
      src[static_cast<size_t>(i)] =
          co_await server.Open(p, "media:f" + std::to_string(i), kOpenRead);
      dst[static_cast<size_t>(i)] =
          server.OpenSocket(p, server_socks[static_cast<size_t>(i)].get());
    }
    if (use_ring) {
      RingConfig cfg;
      cfg.sq_entries = 2 * kStreams;
      cfg.max_inflight = kStreams;
      const int ring = co_await server.RingSetup(p, cfg);
      for (int i = 0; i < kStreams; ++i) {
        SpliceSqe sqe;
        sqe.src_fd = src[static_cast<size_t>(i)];
        sqe.dst_fd = dst[static_cast<size_t>(i)];
        sqe.nbytes = kFileBytes;
        sqe.cookie = static_cast<uint64_t>(i);
        server.RingPrepare(p, ring, sqe);
      }
      // All 8 streams admitted, started, and awaited under ONE trap.
      co_await server.RingEnter(p, ring, kStreams, kStreams);
      std::vector<SpliceCqe> cqes(kStreams);
      server.RingHarvest(p, ring, cqes.data(), kStreams);  // no trap
      for (const SpliceCqe& c : cqes) {
        if (c.error == 0 && c.result == kFileBytes) {
          ++outcome.streams_done;
        }
      }
    } else {
      for (int i = 0; i < kStreams; ++i) {
        const int64_t moved = co_await server.Splice(p, src[static_cast<size_t>(i)],
                                                     dst[static_cast<size_t>(i)], kFileBytes);
        if (moved == kFileBytes) {
          ++outcome.streams_done;
        }
      }
    }
    for (int i = 0; i < kStreams; ++i) {
      // End-of-stream datagram so each client's read loop terminates.
      co_await server.Write(p, dst[static_cast<size_t>(i)], nullptr, 0);
    }
    stream_done = true;
  });

  // The compute job sharing the server with the relay.
  server.Spawn("compute", [&](Process& p) -> Task<> {
    while (!stream_done) {
      co_await server.cpu().Use(p, Milliseconds(1));
      ++outcome.compute_ops;
    }
  });

  for (int i = 0; i < kStreams; ++i) {
    client.Spawn("client" + std::to_string(i), [&, i](Process& p) -> Task<> {
      const int in = client.OpenSocket(p, client_socks[static_cast<size_t>(i)].get());
      std::vector<uint8_t> buf;
      int64_t pos = 0;
      for (;;) {
        const int64_t n = co_await client.Read(p, in, kBlockSize, &buf);
        if (n == 0) {
          break;
        }
        if (n < 0) {
          continue;
        }
        for (int64_t j = 0; j < n && outcome.content_ok; ++j) {
          outcome.content_ok = buf[static_cast<size_t>(j)] == Fill(i, pos + j);
        }
        pos += n;
        outcome.bytes += n;
      }
    });
  }

  sim.Run();
  outcome.elapsed_s = ToSeconds(sim.Now());
  outcome.relay_traps = relay->stats().syscall_traps;
  return outcome;
}

}  // namespace

int main() {
  std::printf("ikdp example: %d disk->UDP relays, sequential splices vs one ring\n", kStreams);
  std::printf("stream: %lld KB per client over its own 10 Mbit/s Ethernet link;\n",
              static_cast<long long>(kFileBytes >> 10));
  std::printf("the server also runs a CPU-bound compute job\n\n");

  const Outcome sync = RunRelay(/*use_ring=*/false);
  const Outcome ring = RunRelay(/*use_ring=*/true);

  auto report = [](const char* label, const Outcome& o) {
    const double per_stream_kbs =
        o.elapsed_s > 0 ? static_cast<double>(o.bytes) / 1024.0 / o.elapsed_s / kStreams : 0;
    std::printf("%-10s: %d/%d streams, %6.2f s, %7.1f KB/s per stream, "
                "%3llu relay traps, compute job %4lld ops, %s\n",
                label, o.streams_done, kStreams, o.elapsed_s, per_stream_kbs,
                static_cast<unsigned long long>(o.relay_traps),
                static_cast<long long>(o.compute_ops), o.content_ok ? "content OK" : "CORRUPT");
  };
  report("sequential", sync);
  report("ring", ring);

  const bool delivered = sync.content_ok && ring.content_ok &&
                         sync.streams_done == kStreams && ring.streams_done == kStreams &&
                         sync.bytes == kStreams * kFileBytes &&
                         ring.bytes == kStreams * kFileBytes;
  const bool ring_wins = ring.elapsed_s < sync.elapsed_s && ring.relay_traps < sync.relay_traps;
  std::printf("\nring: %.1fx faster wall clock, %llu fewer kernel entries\n",
              ring.elapsed_s > 0 ? sync.elapsed_s / ring.elapsed_s : 999.0,
              static_cast<unsigned long long>(sync.relay_traps - ring.relay_traps));
  std::printf("%s\n", delivered && ring_wins ? "OK" : "FAILED");
  return delivered && ring_wins ? 0 : 1;
}
