// The Kernel façade: the system-call interface simulated programs use.
//
// Composes the whole machine — CPU/scheduler, callout table, buffer cache,
// filesystems, devices, sockets, and the splice engine — behind a UNIX-ish
// syscall surface.  Programs are coroutines (one per process) that invoke
// these calls with their Process handle:
//
//   int fd = co_await k.Open(p, "disk0:movie.audio", kOpenRead);
//   co_await k.Fcntl(p, fd, /*fasync=*/true);
//   co_await k.Splice(p, fd, dac, kSpliceEof);     // returns immediately
//   co_await k.Pause(p);                           // SIGIO on completion
//
// Every syscall charges the trap overhead, resets the process priority on
// the way out ("return to user mode"), and delivers pending signals.
//
// Paths:  "<fsname>:<filename>" opens a regular file on a mounted
// filesystem; "/dev/<name>" opens a registered character device.  Sockets
// enter a process's descriptor table via OpenSocket.

#ifndef SRC_OS_KERNEL_H_
#define SRC_OS_KERNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/aio/splice_ring.h"
#include "src/buf/buffer_cache.h"
#include "src/dev/char_device.h"
#include "src/fs/filesystem.h"
#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/kern/ctx.h"
#include "src/kern/lock.h"
#include "src/net/udp_socket.h"
#include "src/sim/callout.h"
#include "src/sim/inline_fn.h"
#include "src/sim/simulator.h"
#include "src/splice/splice_engine.h"
#include "src/vfs/file.h"

#if IKDP_TSA_ENABLED
// Clang thread-safety bridge: map the klock lock name "ktable" onto the
// SleepLock member that backs it (see src/kern/ctx.h, "TSA BRIDGE").
#define ktable_ikdp_tsa_cap , ktable_lock_
#endif

namespace ikdp {

// splice(2) size argument: "a special value indicates the splice should
// execute until an end of file condition is reached" (paper Section 3).
inline constexpr int64_t kSpliceEof = -1;

class Kernel {
 public:
  // The defaults model the paper's machine: 3.2 MB buffer cache (400 x 8 KB)
  // and hz = 256.
  Kernel(Simulator* sim, CostConfig costs, int nbufs = 400, int hz = 256);

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  Simulator* sim() { return sim_; }
  CpuSystem& cpu() { return cpu_; }
  CalloutTable& callouts() { return callouts_; }
  BufferCache& cache() { return cache_; }
  SpliceEngine& splice_engine() { return splice_; }

  // Splice flow-control/zero-copy configuration used by Splice(); benches
  // override it for ablations.
  SpliceOptions& splice_options() { return splice_options_; }

  // --- machine setup (host side, no simulated time) ---

  // Attaches `trace` (nullptr detaches) to every layer that records:
  // scheduler/syscalls (CPU), callout table, and — via the per-request
  // refresh in DiskDriver::Strategy — the disk models underneath mounted
  // filesystems.  Recording never advances simulated time, so attaching a
  // log does not perturb an experiment.
  void AttachTrace(TraceLog* trace);

  // Creates and mounts a filesystem named `name` on `dev`.
  FileSystem* MountFs(BlockDevice* dev, const std::string& name);
  FileSystem* FindFs(const std::string& name);

  // All mounted filesystems in mount-name order (deterministic).
  std::vector<FileSystem*> Mounts();

  // Registers `/dev/<name>`.
  void RegisterCharDev(const std::string& name, CharDevice* dev);

  // Spawns a process running `body`.
  Process* Spawn(std::string name, InlineFn<Task<>(Process&)> body);

  // --- system calls ---

  IKDP_CTX_PROCESS Task<int> Open(Process& p, const std::string& path, uint32_t flags);
  IKDP_CTX_PROCESS Task<int> Close(Process& p, int fd);
  IKDP_CTX_PROCESS Task<int64_t> Read(Process& p, int fd, int64_t n, std::vector<uint8_t>* out);
  IKDP_CTX_PROCESS Task<int64_t> Write(Process& p, int fd, const uint8_t* data, int64_t n);
  IKDP_CTX_PROCESS Task<int64_t> Write(Process& p, int fd, const std::vector<uint8_t>& data);
  IKDP_CTX_PROCESS Task<int64_t> Lseek(Process& p, int fd, int64_t offset);
  // dup(2): a new descriptor sharing the same open-file object (offset and
  // flags included).
  IKDP_CTX_PROCESS Task<int> Dup(Process& p, int fd);

  // Sets or clears FASYNC (fcntl(fd, F_SETFL, FASYNC)).
  IKDP_CTX_PROCESS Task<int> Fcntl(Process& p, int fd, bool fasync);
  IKDP_CTX_PROCESS Task<int> FsyncFd(Process& p, int fd);

  // splice(2): moves `nbytes` (or kSpliceEof) from `src_fd` to `dst_fd`
  // entirely in the kernel.  Synchronous unless either descriptor has
  // FASYNC, in which case it returns 0 immediately and SIGIO is posted on
  // completion.  File endpoints require block-aligned offsets.  Returns
  // bytes moved, 0 (async started), or -1 on error.  An operator program
  // attached to either descriptor (kop_attach) runs over every chunk; the
  // source side's program wins when both carry one.
  IKDP_CTX_PROCESS Task<int64_t> Splice(Process& p, int src_fd, int dst_fd, int64_t nbytes);

  // --- in-kernel splice operators (src/kop; see docs/splice_ops.2.md) ---

  // kop_load(2): statically verifies `prog` against the splice chunk size
  // and installs it into the calling process's program table.  Returns a
  // program id (> 0), or -1 when the verifier rejects it.  Verification
  // walks every stage; its cost is charged as in-kernel operator work
  // (the kop.process attribution bucket).
  IKDP_CTX_PROCESS Task<int> KopLoad(Process& p, KopProgram prog);

  // kop_attach(2): binds loaded program `kop_id` to `fd`; 0 detaches.
  // Returns 0, or -1 for a bad descriptor or unknown program id.  Only ids
  // minted by KopLoad exist, so an unverified program can never be bound
  // (the reject-unverified-program rule).
  IKDP_CTX_PROCESS Task<int> KopAttach(Process& p, int fd, int kop_id);

  // splice_multi(2): fan-out splice.  Requires a route-stage program
  // attached to `src_fd` whose SinkCount() equals dst_fds.size(); the
  // operator picks the destination of each chunk.  Regular-file
  // destinations are refused (routing leaves per-sink byte offsets
  // undefined).  Otherwise behaves like Splice(): synchronous unless any
  // endpoint has FASYNC, errno recorded on the source and every
  // destination.
  IKDP_CTX_PROCESS Task<int64_t> SpliceMulti(Process& p, int src_fd,
                                             const std::vector<int>& dst_fds, int64_t nbytes);

  // Loaded-program lookup (ring SQE resolution, tests).
  std::shared_ptr<const KopProgram> GetKopProgram(Process& p, int kop_id);

  // tell(2): the current seek offset of a regular file.  FASYNC programs
  // poll destination offsets with this to learn which of several outstanding
  // splices completed — SIGIO carries no per-operation status, so each poll
  // costs a full trap (the scalability gap the splice ring closes).
  IKDP_CTX_PROCESS Task<int64_t> Tell(Process& p, int fd);

  // Errno of the most recent splice involving `fd` (0 = success), recorded
  // at completion on both endpoints.  This is how a FASYNC program tells an
  // aborted stream from a finished one: SIGIO fires either way and Tell()
  // stops advancing in both cases.  Returns -1 for a bad descriptor.
  IKDP_CTX_PROCESS Task<int> SpliceError(Process& p, int fd);

  // 1 while an asynchronous splice involving `fd` is still in flight, 0 once
  // it has completed (or none was ever started), -1 for a bad descriptor.
  // Socket endpoints have no offset for Tell to poll and splice_error reads
  // 0 both mid-flight and after clean completion, so FASYNC programs feeding
  // sockets probe this after each SIGIO.  Costs a full trap per probe, like
  // Tell.
  IKDP_CTX_PROCESS Task<int> SpliceStatus(Process& p, int fd);

  // --- asynchronous splice ring (see docs/splice_ring.2.md) ---

  // Creates a per-process ring; returns its id (> 0) or -errno.
  IKDP_CTX_PROCESS Task<int> RingSetup(Process& p, const RingConfig& config);

  // Appends an SQE to the ring's submission queue.  A user-memory store:
  // no trap, no charge.  Returns 0 or -kErrBadf.
  IKDP_CTX_PROCESS int RingPrepare(Process& p, int ring_id, const SpliceSqe& sqe);

  // ONE trap that admits up to `to_submit` prepared SQEs (linked groups are
  // atomic and may round the count up), then waits until at least
  // `min_complete` completions are available to harvest.  Returns the number
  // of SQEs consumed (admitted or failed-with-CQE), or -errno:
  // -kErrAgain when the SQ cap blocks every admission and the ring is not
  // block_on_full; -kErrBadf for an unknown ring.  A signal interrupts
  // either wait; the count of already-admitted SQEs is still returned.
  IKDP_CTX_PROCESS Task<int> RingEnter(Process& p, int ring_id, int to_submit, int min_complete);

  // Copies up to `max` posted CQEs into `out`.  A user-memory load from the
  // completion queue: no trap, no charge.  Returns the count or -kErrBadf.
  IKDP_CTX_PROCESS int RingHarvest(Process& p, int ring_id, SpliceCqe* out, int max);

  // Cancels a queued-but-unstarted op by cookie.  Returns 0, -kErrBusy,
  // -kErrNoent, or -kErrBadf.
  IKDP_CTX_PROCESS Task<int> RingCancel(Process& p, int ring_id, uint64_t cookie);

  // Ring lookup (tests, telemetry).
  SpliceRing* GetRing(Process& p, int ring_id);
  std::vector<SpliceRing*> Rings();

  // Blocks until a signal is delivered, then runs its handler(s).
  IKDP_CTX_PROCESS Task<> Pause(Process& p);

  // Suspends the process for a duration (testing convenience; a sleep(3)
  // built on the callout table).
  IKDP_CTX_PROCESS Task<> SleepFor(Process& p, SimDuration d);

  // Installs a signal handler (no trap cost; bookkeeping only).
  void Sigaction(Process& p, int sig, EventFn handler);

  // Arms a periodic interval timer posting SIGALRM (setitimer ITIMER_REAL).
  void Setitimer(Process& p, SimDuration interval);
  void StopItimer(Process& p);

  // Enters `sock` into p's descriptor table (socket(2)+connect(2) stand-in).
  int OpenSocket(Process& p, UdpSocket* sock);

  // pipe(2): creates an in-kernel pipe and installs the read and write
  // descriptors into p's table.  Returns 0 on success.
  IKDP_CTX_PROCESS Task<int> CreatePipe(Process& p, int* read_fd, int* write_fd);

  // Descriptor lookup (tests and endpoint plumbing).  Takes the fd-table
  // lock itself, so the caller must not hold it.
  IKDP_EXCLUDES(ktable) std::shared_ptr<File> GetFile(Process& p, int fd);

  struct Stats {
    uint64_t syscalls = 0;
    uint64_t splices_sync = 0;
    uint64_t splices_async = 0;
    uint64_t kop_loads = 0;          // programs accepted by the verifier
    uint64_t kop_load_failures = 0;  // programs the verifier rejected
    uint64_t kop_attaches = 0;       // successful kop_attach binds (id != 0)
  };
  const Stats& stats() const { return stats_; }

 private:
  // One process's descriptor table, indexed by fd (the 4.2BSD u_ofile[]
  // array).  Install takes the lowest free fd >= kFirstFd, as open(2) and
  // ufalloc() do; `low_free` is a hint: no fd in [kFirstFd, low_free) is
  // free.
  struct ProcFiles {
    static constexpr int kFirstFd = 3;  // 0-2 reserved, as tradition demands
    std::vector<std::shared_ptr<File>> fds;
    size_t low_free = kFirstFd;
  };

  struct Itimer {
    CalloutId callout = kInvalidCalloutId;
    int64_t ticks = 1;
    bool armed = false;
  };

  // One tick of p's interval timer: posts SIGALRM and re-arms the callout
  // while the timer stays armed.
  void FireItimer(Process* p);

  // Common syscall entry/exit.
  IKDP_CTX_PROCESS Task<> SyscallEnter(Process& p, const char* name);
  IKDP_CTX_PROCESS void SyscallExit(Process& p, const char* name);

  IKDP_EXCLUDES(ktable) int Install(Process& p, std::shared_ptr<File> f);
  // The table entry for an open `fd`, or nullptr (EBADF).
  IKDP_REQUIRES(ktable) std::shared_ptr<File>* FdSlot(Process& p, int fd);

  // --- the one splice setup path (splice, splice_multi, ring SQEs) ---

  // Builds the source endpoint over `src` and one sink per `dsts` entry
  // into `out`.  Returns 0, or the errno of the first refusal: kErrInval
  // (alignment, holes, wrong pipe end, an unbounded splice into a file),
  // kErrIo for an unreadable block map, kErrNoSpc when the destination
  // premap runs the device full.  A regular-file source is bmapped whole and
  // its offset consumed; a regular-file sink is premapped and sets
  // `out->on_moved`.  Runs in process context (the bmaps may sleep).
  IKDP_CTX_PROCESS Task<int> BuildEndpoints(Process& p, const std::shared_ptr<File>& src,
                                            std::span<const std::shared_ptr<File>> dsts,
                                            int64_t nbytes, SpliceEndpoints* out);

  // Charges the caller for handler and operator work that synchronous
  // devices did inside SpliceEngine::Start (the cache's and engine's
  // pending sync charges; operator work lands in the kop.process bucket).
  IKDP_CTX_PROCESS Task<> ChargeSyncSetup(Process& p);

  // splice(2) and splice_multi(2) after their own refusals: binds `prog`,
  // builds the endpoints, starts the splice and, unless an end has FASYNC,
  // sleeps until it completes (a signal cancels it).  Every end's
  // splice_error records kErrInval for a bind refusal, the setup errno, or
  // the completion's.  Exits the syscall `name`; returns like Splice.
  // `dsts` owns the destinations (a one-element array for splice(2), the
  // list for splice_multi(2)) so a FASYNC completion keeps them uncopied.
  template <typename Dsts>
  IKDP_CTX_PROCESS Task<int64_t> SpliceFiles(Process& p, const char* name,
                                             std::shared_ptr<File> src, Dsts dsts,
                                             int64_t nbytes,
                                             std::shared_ptr<const KopProgram> prog);

  // Resolves a claimed ring op's SQE into its engine endpoints and options
  // (splice(2)'s refusals and setup).  Returns 0, or -errno.
  IKDP_CTX_PROCESS Task<int> ResolveSqe(Process& p, SpliceRing::Op* op);

  Simulator* sim_;
  CpuSystem cpu_;
  CalloutTable callouts_;
  BufferCache cache_;
  SpliceEngine splice_;
  SpliceOptions splice_options_;

  std::map<std::string, std::unique_ptr<FileSystem>> mounts_;
  std::map<std::string, CharDevice*> char_devs_;
  // The file-table lock (docs/klock.md): the repo's one SleepLock, guarding
  // the per-process descriptor tables.  Every fd-table critical section is
  // short and never suspends, so the non-coroutine syscall helpers take it
  // with AcquireUncontended()/Release() — the coroutine Acquire(cpu, p) path
  // exists for contended SMP futures (tests/lockdep_test.cc exercises it).
  // Outermost rank: it may be held around calls into cache/ring/engine.
  SleepLock ktable_lock_ IKDP_LOCK_RANK(ktable, 10) = SleepLock("ktable", 10);
  // Indexed by pid: every Process this kernel sees comes from cpu_.Spawn,
  // which numbers them densely from 1.
  std::vector<ProcFiles> files_ IKDP_GUARDED_BY(lock:ktable);
  std::map<Process*, Itimer> itimers_;
  std::map<Process*, std::map<int, std::unique_ptr<SpliceRing>>> rings_;
  int next_ring_id_ = 1;
  // Per-process table of verifier-accepted operator programs (kop_load ids).
  std::map<Process*, std::map<int, std::shared_ptr<const KopProgram>>> kops_;
  int next_kop_id_ = 1;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_OS_KERNEL_H_
