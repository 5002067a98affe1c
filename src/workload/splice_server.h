// SpliceServer: a many-client file-to-UDP media server workload.
//
// The paper's motivating scenario scaled to a fleet: N simulated clients
// (default 1000) issue requests against a server that streams disk-resident
// objects to each client's private UDP socket with splice.  Arrivals are a
// Poisson process (exponential inter-arrival times) and object popularity is
// Zipf-distributed, so the buffer cache sees a realistic hot set.  The
// stream is drawn on demand in the same order (each arrival draws the next),
// and a request's state lives in a recycled slot only while it is live, so
// host memory follows the live requests, not total_requests.  The same
// request stream can be served three ways — the SubmitMode axis the rest of
// the suite measures:
//
//   kSyncLoop    a pool of worker processes, one blocking splice each
//   kFasyncSigio one server process, FASYNC splices, SIGIO + SpliceStatus
//                probes (sockets have no offset for Tell to poll)
//   kRing        one server process driving a splice ring
//
// Requests are serialized per client (a client has at most one stream in
// flight), so client-side byte counting can attribute every delivered
// datagram to exactly one request.  Clients are host-side datagram sinks
// (RecvAsync re-armed from the delivery interrupt), not simulated processes:
// 1000 clients cost 1000 sockets, not 1000 kernel stacks.
//
// Observability is the point of the workload:
//
//  * Each request gets a ROOT kspan ("server.request") minted at arrival,
//    ended at the last delivered byte (or at the server-side error), so the
//    whole in-kernel path — splice stream, disk transfers, wire occupancy,
//    completion interrupts — attributes to the request that caused it
//    (src/sim/kspan.h).  The server process re-labels itself with
//    CpuSystem::SetSpan around each request's syscalls.
//  * SpliceServerHooks reports request starts, per-datagram progress, ends,
//    and a periodic tick in simulated time — exactly the feed an online SLO
//    monitor (src/metrics/slo.h) needs.  Hooks are host-side observers; the
//    run is byte-identical with and without them.
//
// RunSpliceServer builds the whole machine (server kernel + ramdisk fs,
// client kernel, one Ethernet link per client), runs the request stream to
// completion, checks the CPU attribution closure on both CPUs, and returns
// the merged ledger so callers can export per-request breakdowns.

#ifndef SRC_WORKLOAD_SPLICE_SERVER_H_
#define SRC_WORKLOAD_SPLICE_SERVER_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/kern/cpu.h"
#include "src/kop/kop.h"
#include "src/sim/inline_fn.h"
#include "src/sim/time.h"
#include "src/workload/programs.h"

namespace ikdp {

struct SpliceServerConfig {
  int n_clients = 1000;
  int n_objects = 64;              // distinct objects on the server disk
  int64_t object_bytes = 8 * kBlockSize;  // per-request transfer size
  int total_requests = 2000;

  // Poisson arrival process: aggregate request rate (requests per simulated
  // second) and the Zipf popularity exponent for object selection.
  double offered_rps = 4000.0;
  double zipf_s = 1.0;

  SubmitMode mode = SubmitMode::kSyncLoop;
  int sync_workers = 8;    // worker-pool width (kSyncLoop only)
  int ring_inflight = 64;  // splice-engine concurrency (kRing only)

  // Optional in-kernel operator (src/kop) run over every request's stream:
  // loaded once per server process (kop_load) and bound to each request —
  // kop_attach on the source fd in the syscall modes, SQE kop_id on the
  // ring.  Empty stages = no operator, the byte-identical pre-kop server.
  // Completion accounting counts client-delivered bytes, so programs here
  // must not drop chunks (checksum / transform; a filter marks every
  // request short-delivered and therefore errored).
  KopProgram kop_program;

  uint64_t seed = 1;

  // Cadence of SpliceServerHooks::on_tick (0 disables ticking).
  SimDuration tick = Milliseconds(100);
};

// Host-side observers of the request stream, in simulated time.  All
// optional; none may advance the simulation.
struct SpliceServerHooks {
  // A request entered the system (Poisson arrival).
  InlineFn<void(uint64_t id, SimTime t)> on_start;
  // A datagram for the request reached its client.
  InlineFn<void(uint64_t id, SimTime t, int64_t nbytes)> on_progress;
  // The request left the system: all bytes delivered, or the server aborted
  // it (`error`).  `bytes` is what actually reached the client.
  InlineFn<void(uint64_t id, SimTime t, int64_t bytes, bool error)> on_end;
  // Fires every SpliceServerConfig::tick until the last request ends —
  // drive SloMonitor::CheckStalls from here.
  InlineFn<void(SimTime now)> on_tick;
};

struct SpliceServerResult {
  uint64_t requests = 0;   // arrivals issued (== config.total_requests)
  uint64_t completed = 0;  // delivered in full
  uint64_t errored = 0;    // aborted server-side
  int64_t bytes = 0;       // total bytes delivered to clients
  SimTime end_time = 0;    // sim clock when the machine went quiet
  // Most requests held at once: arrived, and not yet both ended and
  // released by the server.  The request table's size, so host memory
  // follows the live requests rather than total_requests.
  uint64_t peak_live_requests = 0;

  uint64_t server_traps = 0;   // syscall traps across all server processes
  uint64_t sigio_handled = 0;  // SIGIO deliveries (kFasyncSigio / kRing)

  CpuSystem::Stats server_cpu;
  CpuSystem::Stats client_cpu;

  // Both CPUs' attribution ledgers merged (same key -> summed), taken after
  // the run; join with the attached KspanCollector for per-request views.
  std::map<CpuSystem::ChargeKey, SimDuration> attribution;

  // CheckAttributionClosure on both CPUs.  This is an acceptance gate, not a
  // report: benches abort when it fails.
  bool closure_ok = false;
  std::string closure_err;

  bool ok = false;  // every request completed, none errored, closure holds
};

// Runs the whole workload to completion on a private machine.  Attach a
// KspanCollector (AttachKspan) before calling to record span trees; the
// simulated timeline is identical either way.
SpliceServerResult RunSpliceServer(const SpliceServerConfig& config,
                                   const SpliceServerHooks& hooks = {});

}  // namespace ikdp

#endif  // SRC_WORKLOAD_SPLICE_SERVER_H_
