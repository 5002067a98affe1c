#include "src/workload/splice_server.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/dev/ram_disk.h"
#include "src/hw/link.h"
#include "src/net/udp_socket.h"
#include "src/os/kernel.h"
#include "src/sim/fifo.h"
#include "src/sim/kspan.h"
#include "src/sim/random.h"
#include "src/sim/slot_pool.h"

namespace ikdp {

namespace {

// Exponential inter-arrival gap with the given mean, in nanoseconds.
SimDuration ExpGap(Rng& rng, double mean_ns) {
  const double u = rng.NextDouble();  // [0, 1): log(1 - u) is finite
  const double gap = -std::log(1.0 - u) * mean_ns;
  return std::max<SimDuration>(1, static_cast<SimDuration>(std::llround(gap)));
}

// Zipf(s) sampler over [0, n) via inverse CDF lookup.
class Zipf {
 public:
  Zipf(int n, double s) {
    cdf_.reserve(static_cast<size_t>(n));
    double total = 0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  int Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                                             cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

// One live request, in a slot of the server's request pool from its arrival
// until it has ended and the server is done with it, so the pool holds the
// live requests, not the whole stream.  `next_queued` threads the client's
// request FIFO (front is active) and `next_expected` its delivery FIFO
// (front is owed the next datagram): the wire is FIFO and requests are
// serialized per client, so crediting the front of the delivery FIFO
// attributes every datagram correctly.
struct Request {
  uint64_t id = 0;
  int client = 0;
  int object = 0;
  int64_t nbytes = 0;
  SimTime arrival = 0;
  SpanId span = kNoSpan;
  bool span_owned = false;
  bool ended = false;            // left the system: hooks fired, client moved on
  bool server_finished = false;  // the server holds nothing of it any more
  int64_t delivered = 0;
  int64_t remaining = 0;  // bytes still owed while on the delivery FIFO
  int src_fd = -1;        // server-side file fd while the stream is in flight
  Request* next_queued = nullptr;
  Request* next_expected = nullptr;
};

// An idle client owns its two sockets and its wire; its requests live in
// the request pool, threaded through their slots.
struct ClientState {
  std::unique_ptr<UdpSocket> server_sock;
  std::unique_ptr<UdpSocket> client_sock;
  std::unique_ptr<NetworkLink> wire;
  int server_fd = -1;  // persistent fd (single-server modes only)
  IntrusiveFifo<Request, &Request::next_queued> queue;     // assigned; front is active
  IntrusiveFifo<Request, &Request::next_expected> expect;  // deliveries outstanding
};

uint8_t ObjectByte(int object, int64_t i) {
  return static_cast<uint8_t>((i * 131 + object * 29 + 7) & 0xff);
}

}  // namespace

SpliceServerResult RunSpliceServer(const SpliceServerConfig& config,
                                   const SpliceServerHooks& hooks) {
  assert(config.n_clients > 0 && config.offered_rps > 0);
  SpliceServerResult result;
  const int total = config.total_requests;
  result.requests = static_cast<uint64_t>(total);

  Simulator sim;
  Kernel server(&sim, DecStation5000Costs());
  Kernel client(&sim, DecStation5000Costs());

  const int64_t fs_bytes =
      std::max<int64_t>(16 << 20, 2 * config.n_objects * config.object_bytes);
  RamDisk disk(&server.cpu(), fs_bytes);
  FileSystem* fs = server.MountFs(&disk, "obj");
  // Filled a block per call: a call per byte made set-up time follow where
  // the linker happened to place the fill function.
  for (int i = 0; i < config.n_objects; ++i) {
    fs->CreateFileInstant(std::string("o").append(std::to_string(i)), config.object_bytes,
                          [i](int64_t lbn, std::span<uint8_t> bytes) {
                            for (size_t j = 0; j < bytes.size(); ++j) {
                              bytes[j] = ObjectByte(i, lbn * kBlockSize + static_cast<int64_t>(j));
                            }
                          });
  }

  // The request stream is drawn one arrival ahead, when the previous
  // arrival fires: gap, client, object, in that order, so a seed gives the
  // same sequence in every mode and at every total_requests.
  Rng rng(config.seed);
  const double mean_ns = 1e9 / config.offered_rps;
  const Zipf zipf(config.n_objects, config.zipf_s);
  SimTime next_when = 0;
  int next_client = 0;
  int next_object = 0;
  auto draw_next = [&] {
    next_when += ExpGap(rng, mean_ns);
    next_client = static_cast<int>(rng.Below(static_cast<uint64_t>(config.n_clients)));
    next_object = zipf.Sample(rng);
  };
  SlotPool<Request> reqs;

  // One private wire per client, like the paper's per-stream interfaces; the
  // requests contend for the server's CPU, disk, and cache — never for each
  // other's bandwidth.
  std::vector<ClientState> clients(static_cast<size_t>(config.n_clients));
  for (ClientState& c : clients) {
    c.server_sock = std::make_unique<UdpSocket>(&server.cpu());
    c.client_sock = std::make_unique<UdpSocket>(&client.cpu(), 48 * 1024, 256 * 1024);
    c.wire = std::make_unique<NetworkLink>(&sim, EthernetParams());
    c.server_sock->ConnectTo(c.client_sock.get(), c.wire.get());
  }

  Fifo<Request*> ready;  // requests whose client is idle, oldest first
  Process* single_server = nullptr;  // kFasyncSigio / kRing server process
  int served = 0;                    // requests fully handled server-side
  int done_total = 0;                // requests ended (either side)
  SimTime last_end = 0;
  uint64_t sigio_handled = 0;

  const bool single_mode = config.mode != SubmitMode::kSyncLoop;
  auto ready_push = [&](Request* k) {
    ready.push_back(k);
    server.cpu().Wakeup(&ready);
    if (single_mode && single_server != nullptr) {
      // The single-process servers park in Pause / RingEnter waiting for
      // completions; a signal is the only stimulus that reaches them there.
      server.cpu().Post(*single_server, kSigIo);
    }
  };

  // Gives the slot back once both sides are done with its request.
  auto release_if_done = [&](Request* k) {
    if (k->ended && k->server_finished) {
      reqs.Release(k);
    }
  };

  auto end_request = [&](Request* k, bool error) {
    Request& r = *k;
    if (r.ended) {
      return;
    }
    r.ended = true;
    const SimTime now = sim.Now();
    last_end = std::max(last_end, now);
    result.bytes += r.delivered;
    if (error) {
      ++result.errored;
    } else {
      ++result.completed;
    }
    if (r.span_owned) {
      KspanEnd(now, r.span, r.delivered, error);
    }
    if (hooks.on_end) {
      hooks.on_end(r.id, now, r.delivered, error);
    }
    ++done_total;
    ClientState& c = clients[static_cast<size_t>(r.client)];
    if (c.queue.front() == k) {
      c.queue.pop_front();
    }
    release_if_done(k);
    if (!c.queue.empty()) {
      ready_push(c.queue.front());
    }
  };

  // The server holds nothing of request `k` any more (its stream finished,
  // failed or never started).
  auto server_done = [&](Request* k) {
    k->server_finished = true;
    release_if_done(k);
  };

  // The server starts streaming request `k`: its client is owed nbytes.
  auto expect = [&](Request* k) {
    k->remaining = k->nbytes;
    clients[static_cast<size_t>(k->client)].expect.push_back(k);
  };

  // An aborted stream delivers nothing further; drop the client's pending
  // byte count for it so later requests' datagrams are not mis-credited.
  auto drop_expected = [&](Request* k) {
    clients[static_cast<size_t>(k->client)].expect.Erase(k);
  };

  // Clients: host-side datagram sinks, re-armed from the delivery interrupt.
  // One handler serves every client; each armed receive carries only the
  // handler and the client's index.
  auto on_recv = [&](auto& self, int i, int64_t n) -> void {
    ClientState& me = clients[static_cast<size_t>(i)];
    if (n > 0 && !me.expect.empty()) {
      Request* const k = me.expect.front();
      Request& r = *k;
      r.delivered += n;
      r.remaining -= n;
      if (hooks.on_progress) {
        hooks.on_progress(r.id, sim.Now(), n);
      }
      if (r.remaining <= 0) {
        me.expect.pop_front();
        end_request(k, /*error=*/false);
      }
    }
    me.client_sock->RecvAsync(config.object_bytes,
                              [&self, i](BufData, int64_t got) { self(self, i, got); });
  };
  for (int i = 0; i < config.n_clients; ++i) {
    clients[static_cast<size_t>(i)].client_sock->RecvAsync(
        config.object_bytes, [&on_recv, i](BufData, int64_t n) { on_recv(on_recv, i, n); });
  }

  // Poisson arrival chain.  Arrival events are host bookkeeping: they mint
  // the request's root span, enqueue it, wake the server, and draw the next
  // arrival.
  auto arrive = [&](auto& self, int k) -> void {
    Request* const slot = reqs.Acquire();
    Request& r = *slot;
    r.id = static_cast<uint64_t>(k);
    r.client = next_client;
    r.object = next_object;
    r.nbytes = config.object_bytes;
    r.arrival = sim.Now();
    r.span_owned = KspanOwned();
    r.span = KspanBegin(r.arrival, "server.request", static_cast<int64_t>(r.id));
    if (hooks.on_start) {
      hooks.on_start(r.id, r.arrival);
    }
    ClientState& c = clients[static_cast<size_t>(r.client)];
    const bool idle = c.queue.empty();
    c.queue.push_back(slot);
    if (idle) {
      ready_push(slot);
    }
    if (k + 1 < total) {
      draw_next();
      sim.At(next_when, [&self, k] { self(self, k + 1); });
    }
  };
  if (total > 0) {
    draw_next();
    sim.At(next_when, [&arrive] { arrive(arrive, 0); });
  }

  // Watchdog tick for the SLO monitor, self-rescheduling until the last
  // request ends.  The tick body touches no simulated state.  (`tick` is a
  // function-scope object: each rescheduled event references it.)
  auto tick = [&](auto& self) -> void {
    hooks.on_tick(sim.Now());
    if (done_total < total) {
      sim.After(config.tick, [&self] { self(self); });
    }
  };
  if (hooks.on_tick && config.tick > 0) {
    sim.After(config.tick, [&tick] { tick(tick); });
  }

  std::vector<Process*> procs;

  auto open_object = [&](Process& p, const Request& r) -> Task<int> {
    co_return co_await server.Open(p, "obj:o" + std::to_string(r.object), kOpenRead);
  };

  switch (config.mode) {
    case SubmitMode::kSyncLoop: {
      for (int w = 0; w < config.sync_workers; ++w) {
        procs.push_back(server.Spawn(
            "worker" + std::to_string(w), [&](Process& p) -> Task<> {
              // Program tables are per process: each worker loads its own copy.
              int kop_id = 0;
              if (!config.kop_program.stages.empty()) {
                kop_id = co_await server.KopLoad(p, config.kop_program);
              }
              while (true) {
                if (ready.empty()) {
                  if (served >= total) {
                    break;
                  }
                  co_await server.cpu().Sleep(p, &ready, kPriWait, /*interruptible=*/false);
                  continue;
                }
                Request* const k = ready.pop_front();
                Request& r = *k;
                ClientState& c = clients[static_cast<size_t>(r.client)];
                server.cpu().SetSpan(p, r.span);
                const int sfd = co_await open_object(p, r);
                if (sfd < 0) {
                  server.cpu().SetSpan(p, kNoSpan);
                  end_request(k, /*error=*/true);
                } else {
                  if (kop_id > 0) {
                    co_await server.KopAttach(p, sfd, kop_id);
                  }
                  const int dfd = server.OpenSocket(p, c.server_sock.get());
                  expect(k);
                  const int64_t moved = co_await server.Splice(p, sfd, dfd, r.nbytes);
                  co_await server.Close(p, sfd);
                  co_await server.Close(p, dfd);
                  server.cpu().SetSpan(p, kNoSpan);
                  if (moved != r.nbytes) {
                    drop_expected(k);
                    end_request(k, /*error=*/true);
                  }
                }
                server_done(k);
                ++served;
                if (served >= total) {
                  server.cpu().Wakeup(&ready);  // release the other workers
                }
              }
            }));
      }
      break;
    }

    case SubmitMode::kFasyncSigio: {
      single_server = server.Spawn("server", [&](Process& p) -> Task<> {
        server.Sigaction(p, kSigIo, [&sigio_handled] { ++sigio_handled; });
        int kop_id = 0;
        if (!config.kop_program.stages.empty()) {
          kop_id = co_await server.KopLoad(p, config.kop_program);
        }
        for (ClientState& c : clients) {
          c.server_fd = server.OpenSocket(p, c.server_sock.get());
          co_await server.Fcntl(p, c.server_fd, /*fasync=*/true);
        }
        std::vector<Request*> inflight;
        while (served < total || !inflight.empty()) {
          bool progressed = false;
          // Probe completions first: SIGIO says "something finished", and
          // SpliceStatus (one trap per probe — sockets have no offset for
          // Tell) says which.
          for (auto it = inflight.begin(); it != inflight.end();) {
            Request& r = **it;
            ClientState& c = clients[static_cast<size_t>(r.client)];
            server.cpu().SetSpan(p, r.span);
            const int active = co_await server.SpliceStatus(p, c.server_fd);
            if (active != 0) {
              server.cpu().SetSpan(p, kNoSpan);
              ++it;
              continue;
            }
            const int err = co_await server.SpliceError(p, c.server_fd);
            co_await server.Close(p, r.src_fd);
            server.cpu().SetSpan(p, kNoSpan);
            if (err != 0) {
              drop_expected(*it);
              end_request(*it, /*error=*/true);
            }
            server_done(*it);
            it = inflight.erase(it);
            progressed = true;
          }
          while (!ready.empty()) {
            Request* const k = ready.pop_front();
            Request& r = *k;
            ClientState& c = clients[static_cast<size_t>(r.client)];
            server.cpu().SetSpan(p, r.span);
            r.src_fd = co_await open_object(p, r);
            if (r.src_fd < 0) {
              server.cpu().SetSpan(p, kNoSpan);
              end_request(k, /*error=*/true);
              server_done(k);
              ++served;
              continue;
            }
            if (kop_id > 0) {
              co_await server.KopAttach(p, r.src_fd, kop_id);
            }
            expect(k);
            const int64_t rc = co_await server.Splice(p, r.src_fd, c.server_fd, r.nbytes);
            ++served;
            if (rc != 0) {
              const int err = co_await server.SpliceError(p, c.server_fd);
              (void)err;
              co_await server.Close(p, r.src_fd);
              server.cpu().SetSpan(p, kNoSpan);
              drop_expected(k);
              end_request(k, /*error=*/true);
              server_done(k);
              continue;
            }
            server.cpu().SetSpan(p, kNoSpan);
            inflight.push_back(k);
            progressed = true;
          }
          if (served >= total && inflight.empty()) {
            break;
          }
          if (!progressed && ready.empty()) {
            co_await server.Pause(p);  // SIGIO: completion or arrival
          }
        }
      });
      procs.push_back(single_server);
      break;
    }

    case SubmitMode::kRing: {
      single_server = server.Spawn("server", [&](Process& p) -> Task<> {
        server.Sigaction(p, kSigIo, [&sigio_handled] { ++sigio_handled; });
        int kop_id = 0;
        if (!config.kop_program.stages.empty()) {
          kop_id = co_await server.KopLoad(p, config.kop_program);
        }
        for (ClientState& c : clients) {
          c.server_fd = server.OpenSocket(p, c.server_sock.get());
        }
        RingConfig rc;
        rc.sq_entries = config.n_clients + 8;
        rc.cq_entries = config.n_clients + 8;
        rc.max_inflight = config.ring_inflight;
        const int ring = co_await server.RingSetup(p, rc);
        std::vector<SpliceCqe> cqes(static_cast<size_t>(config.n_clients) + 8);
        // CQE cookies are request ids; this finds each in-flight op's slot.
        std::unordered_map<uint64_t, Request*> ring_slot;
        ring_slot.reserve(static_cast<size_t>(rc.sq_entries));
        int inflight = 0;
        while (served < total || inflight > 0) {
          while (!ready.empty()) {
            Request* const k = ready.pop_front();
            Request& r = *k;
            ClientState& c = clients[static_cast<size_t>(r.client)];
            server.cpu().SetSpan(p, r.span);
            r.src_fd = co_await open_object(p, r);
            if (r.src_fd < 0) {
              server.cpu().SetSpan(p, kNoSpan);
              end_request(k, /*error=*/true);
              server_done(k);
              ++served;
              continue;
            }
            expect(k);
            SpliceSqe sqe;
            sqe.src_fd = r.src_fd;
            sqe.dst_fd = c.server_fd;
            sqe.nbytes = r.nbytes;
            sqe.cookie = r.id;
            sqe.kop_id = kop_id;  // 0 = no operator; no per-request attach trap
            ring_slot.emplace(r.id, k);
            (void)server.RingPrepare(p, ring, sqe);  // fails only for a bad ring id
            // Submit-only enter under the request's span, so the minted
            // aio.op (and the splice stream under it) parents here.
            co_await server.RingEnter(p, ring, 1, 0);
            server.cpu().SetSpan(p, kNoSpan);
            ++served;
            ++inflight;
          }
          if (inflight == 0) {
            if (served >= total) {
              break;
            }
            co_await server.cpu().Sleep(p, &ready, kPriWait, /*interruptible=*/false);
            continue;
          }
          // Wait for at least one completion; an arrival's SIGIO also breaks
          // this wait so queued requests are not stuck behind a slow stream.
          co_await server.RingEnter(p, ring, 0, 1);
          const int got = server.RingHarvest(p, ring, cqes.data(),
                                             static_cast<int>(cqes.size()));
          for (int i = 0; i < got; ++i) {
            auto op = ring_slot.extract(cqes[static_cast<size_t>(i)].cookie);
            assert(!op.empty() && "CQE for an op this server never submitted");
            Request* const k = op.mapped();
            Request& r = *k;
            server.cpu().SetSpan(p, r.span);
            co_await server.Close(p, r.src_fd);
            server.cpu().SetSpan(p, kNoSpan);
            if (cqes[static_cast<size_t>(i)].error != 0 ||
                cqes[static_cast<size_t>(i)].result != r.nbytes) {
              drop_expected(k);
              end_request(k, /*error=*/true);
            }
            server_done(k);
            --inflight;
          }
        }
      });
      procs.push_back(single_server);
      break;
    }
  }

  sim.Run();

  result.end_time = last_end;
  result.peak_live_requests = reqs.peak();
  result.sigio_handled = sigio_handled;
  for (const Process* p : procs) {
    result.server_traps += p->stats().syscall_traps;
  }
  result.server_cpu = server.cpu().stats();
  result.client_cpu = client.cpu().stats();
  result.attribution = server.cpu().attribution();
  for (const auto& [key, dur] : client.cpu().attribution()) {
    result.attribution[key] += dur;
  }
  std::string err;
  result.closure_ok = server.cpu().CheckAttributionClosure(&err);
  if (!result.closure_ok) {
    result.closure_err = "server: " + err;
  } else {
    result.closure_ok = client.cpu().CheckAttributionClosure(&err);
    if (!result.closure_ok) {
      result.closure_err = "client: " + err;
    }
  }
  result.ok = result.closure_ok && result.errored == 0 &&
              result.completed == static_cast<uint64_t>(total);
  return result;
}

}  // namespace ikdp
