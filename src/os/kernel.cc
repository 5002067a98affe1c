#include "src/os/kernel.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "src/splice/file_endpoint.h"
#include "src/splice/stream_endpoint.h"

namespace ikdp {

Kernel::Kernel(Simulator* sim, CostConfig costs, int nbufs, int hz)
    : sim_(sim),
      cpu_(sim, costs),
      callouts_(sim, hz),
      cache_(&cpu_, nbufs),
      splice_(&cpu_, &callouts_) {}

// --- setup ---

void Kernel::AttachTrace(TraceLog* trace) {
  cpu_.set_trace(trace);
  callouts_.set_trace(trace);
}

FileSystem* Kernel::MountFs(BlockDevice* dev, const std::string& name) {
  assert(mounts_.count(name) == 0);
  auto fs = std::make_unique<FileSystem>(&cpu_, &cache_, dev, name);
  FileSystem* out = fs.get();
  mounts_[name] = std::move(fs);
  return out;
}

FileSystem* Kernel::FindFs(const std::string& name) {
  auto it = mounts_.find(name);
  return it == mounts_.end() ? nullptr : it->second.get();
}

std::vector<FileSystem*> Kernel::Mounts() {
  std::vector<FileSystem*> out;
  out.reserve(mounts_.size());
  for (auto& [name, fs] : mounts_) {
    out.push_back(fs.get());
  }
  return out;
}

void Kernel::RegisterCharDev(const std::string& name, CharDevice* dev) {
  char_devs_[name] = dev;
}

Process* Kernel::Spawn(std::string name, InlineFn<Task<>(Process&)> body) {
  return cpu_.Spawn(std::move(name), std::move(body));
}

// --- syscall plumbing ---

Task<> Kernel::SyscallEnter(Process& p, const char* name) {
  ++stats_.syscalls;
  if (cpu_.trace() != nullptr) {
    cpu_.trace()->Record(sim_->Now(), TraceKind::kSyscallEnter, p.pid(), 0, name);
  }
  cpu_.AccountTrap(p, cpu_.costs().syscall_overhead);
  co_await cpu_.Use(p, cpu_.costs().syscall_overhead);
}

void Kernel::SyscallExit(Process& p, const char* name) {
  if (cpu_.trace() != nullptr) {
    cpu_.trace()->Record(sim_->Now(), TraceKind::kSyscallExit, p.pid(), 0, name);
  }
  p.ResetPriority();
  p.TakeSignals();
}

// The fd-table critical sections never suspend, so the SleepLock's
// uncontended fast path is the right acquire here: on the simulated single
// CPU there is no second process to contend with inside a non-suspending
// section, and AcquireUncontended aborts (rather than sleeps) if that
// invariant is ever broken.
int Kernel::Install(Process& p, std::shared_ptr<File> f) {
  ktable_lock_.AcquireUncontended();
  const size_t pid = static_cast<size_t>(p.pid());
  if (pid >= files_.size()) {
    files_.resize(pid + 1);
  }
  ProcFiles& pf = files_[pid];
  size_t fd = pf.low_free;
  while (fd < pf.fds.size() && pf.fds[fd] != nullptr) {
    ++fd;
  }
  if (fd >= pf.fds.size()) {
    pf.fds.resize(fd + 1);
  }
  pf.fds[fd] = std::move(f);
  pf.low_free = fd + 1;
  ktable_lock_.Release();
  return static_cast<int>(fd);
}

std::shared_ptr<File>* Kernel::FdSlot(Process& p, int fd) {
  const size_t pid = static_cast<size_t>(p.pid());
  if (pid >= files_.size() || fd < ProcFiles::kFirstFd ||
      static_cast<size_t>(fd) >= files_[pid].fds.size()) {
    return nullptr;
  }
  std::shared_ptr<File>& slot = files_[pid].fds[static_cast<size_t>(fd)];
  return slot != nullptr ? &slot : nullptr;
}

std::shared_ptr<File> Kernel::GetFile(Process& p, int fd) {
  ktable_lock_.AcquireUncontended();
  std::shared_ptr<File>* slot = FdSlot(p, fd);
  std::shared_ptr<File> f = slot != nullptr ? *slot : nullptr;
  ktable_lock_.Release();
  return f;
}

// --- file syscalls ---

Task<int> Kernel::Open(Process& p, const std::string& path, uint32_t flags) {
  co_await SyscallEnter(p, "open");
  int result = -1;
  if (path.rfind("/dev/", 0) == 0) {
    auto it = char_devs_.find(path.substr(5));
    if (it != char_devs_.end()) {
      result = Install(p, std::make_shared<DeviceFile>(&cpu_, it->second));
    }
  } else if (const size_t colon = path.find(':'); colon != std::string::npos) {
    FileSystem* fs = FindFs(path.substr(0, colon));
    if (fs != nullptr) {
      const std::string fname = path.substr(colon + 1);
      Inode* ip = fs->Lookup(fname);
      if (ip == nullptr && (flags & kOpenCreate) != 0) {
        ip = fs->Create(fname);
      }
      if (ip != nullptr) {
        if ((flags & kOpenTrunc) != 0) {
          fs->Truncate(ip);
        }
        result = Install(p, std::make_shared<RegularFile>(fs, ip));
      }
    }
  }
  SyscallExit(p, "open");
  co_return result;
}

Task<int> Kernel::Close(Process& p, int fd) {
  co_await SyscallEnter(p, "close");
  ktable_lock_.AcquireUncontended();
  int result = -1;
  if (std::shared_ptr<File>* slot = FdSlot(p, fd)) {
    slot->reset();
    ProcFiles& pf = files_[static_cast<size_t>(p.pid())];
    pf.low_free = std::min(pf.low_free, static_cast<size_t>(fd));
    result = 0;
  }
  ktable_lock_.Release();
  SyscallExit(p, "close");
  co_return result;
}

Task<int64_t> Kernel::Read(Process& p, int fd, int64_t n, std::vector<uint8_t>* out) {
  co_await SyscallEnter(p, "read");
  std::shared_ptr<File> f = GetFile(p, fd);
  int64_t result = -1;
  if (f != nullptr) {
    result = co_await f->Read(p, n, out);
  }
  SyscallExit(p, "read");
  co_return result;
}

Task<int64_t> Kernel::Write(Process& p, int fd, const uint8_t* data, int64_t n) {
  co_await SyscallEnter(p, "write");
  std::shared_ptr<File> f = GetFile(p, fd);
  int64_t result = -1;
  if (f != nullptr) {
    result = co_await f->Write(p, data, n);
  }
  SyscallExit(p, "write");
  co_return result;
}

Task<int64_t> Kernel::Write(Process& p, int fd, const std::vector<uint8_t>& data) {
  co_return co_await Write(p, fd, data.data(), static_cast<int64_t>(data.size()));
}

Task<int64_t> Kernel::Lseek(Process& p, int fd, int64_t offset) {
  co_await SyscallEnter(p, "lseek");
  std::shared_ptr<File> f = GetFile(p, fd);
  int64_t result = -1;
  if (f != nullptr && f->kind() == File::Kind::kRegular && offset >= 0) {
    static_cast<RegularFile*>(f.get())->offset = offset;
    result = offset;
  }
  SyscallExit(p, "lseek");
  co_return result;
}

Task<int64_t> Kernel::Tell(Process& p, int fd) {
  co_await SyscallEnter(p, "tell");
  std::shared_ptr<File> f = GetFile(p, fd);
  int64_t result = -1;
  if (f != nullptr && f->kind() == File::Kind::kRegular) {
    result = static_cast<RegularFile*>(f.get())->offset;
  }
  SyscallExit(p, "tell");
  co_return result;
}

Task<int> Kernel::SpliceError(Process& p, int fd) {
  co_await SyscallEnter(p, "splice_error");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    result = f->splice_error;
  }
  SyscallExit(p, "splice_error");
  co_return result;
}

Task<int> Kernel::SpliceStatus(Process& p, int fd) {
  co_await SyscallEnter(p, "splice_status");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    result = f->splice_active ? 1 : 0;
  }
  SyscallExit(p, "splice_status");
  co_return result;
}

Task<int> Kernel::Dup(Process& p, int fd) {
  co_await SyscallEnter(p, "dup");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    result = Install(p, std::move(f));
  }
  SyscallExit(p, "dup");
  co_return result;
}

Task<int> Kernel::Fcntl(Process& p, int fd, bool fasync) {
  co_await SyscallEnter(p, "fcntl");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    f->fasync = fasync;
    result = 0;
  }
  SyscallExit(p, "fcntl");
  co_return result;
}

Task<int> Kernel::FsyncFd(Process& p, int fd) {
  co_await SyscallEnter(p, "fsync");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    co_await f->Fsync(p);
    result = 0;
  }
  SyscallExit(p, "fsync");
  co_return result;
}

// --- splice ---

namespace {

// The argument refusals every splice front-end applies before a program
// binds: a byte count that is neither >= 0 nor kSpliceEof, and a regular
// file spliced onto itself (reads and writes would interleave over one block
// map; the paper's splice has no such mode either).
bool SpliceLengthOk(int64_t nbytes) { return nbytes >= 0 || nbytes == kSpliceEof; }

bool SelfSplice(File& src, File& dst) {
  return src.kind() == File::Kind::kRegular && dst.kind() == File::Kind::kRegular &&
         static_cast<RegularFile&>(src).inode() == static_cast<RegularFile&>(dst).inode();
}

bool HasFileSink(std::span<const std::shared_ptr<File>> dsts) {
  return std::any_of(dsts.begin(), dsts.end(),
                     [](const auto& f) { return f->kind() == File::Kind::kRegular; });
}

// The kop bind rule: a program binds only if the verifier accepted it, its
// SinkCount() equals the number of destinations, and it cannot drop chunks
// over a regular-file sink (whose offset bookkeeping assumes contiguous
// bytes).  No program always binds.  Which program is asked about is the
// caller's choice: the attached one, or an SQE's kop_id.
bool KopBinds(const KopProgram* prog, std::span<const std::shared_ptr<File>> dsts) {
  return prog == nullptr ||
         (prog->verified && prog->SinkCount() == static_cast<int>(dsts.size()) &&
          !(prog->CanDrop() && HasFileSink(dsts)));
}

void SetSpliceError(File& src, std::span<const std::shared_ptr<File>> dsts, int err) {
  src.splice_error = err;
  for (const std::shared_ptr<File>& d : dsts) {
    d->splice_error = err;
  }
}

void SetSpliceActive(File& src, std::span<const std::shared_ptr<File>> dsts, bool active) {
  src.splice_active = active;
  for (const std::shared_ptr<File>& d : dsts) {
    d->splice_active = active;
  }
}

}  // namespace

Task<int> Kernel::BuildEndpoints(Process& p, const std::shared_ptr<File>& src,
                                 std::span<const std::shared_ptr<File>> dsts, int64_t nbytes,
                                 SpliceEndpoints* out) {
  // Stream sources coalesce short deliveries into full blocks when a file
  // sink's block map needs them.
  const bool sink_is_file = HasFileSink(dsts);
  // The byte count the sinks must take; -1 for a stream bounded only by EOF.
  int64_t len = nbytes == kSpliceEof ? -1 : nbytes;
  // A regular-file source whose offset the splice consumes, once every sink
  // is built: a refused splice leaves the offset where it was.
  RegularFile* consumed = nullptr;
  switch (src->kind()) {
    case File::Kind::kRegular: {
      auto* rf = static_cast<RegularFile*>(src.get());
      if (rf->offset % kBlockSize != 0) {
        co_return kErrInval;  // file splices require block-aligned offsets
      }
      const int64_t avail = rf->inode()->size - rf->offset;
      len = nbytes == kSpliceEof ? avail : std::min(nbytes, avail);
      if (len < 0) {
        co_return kErrInval;
      }
      // "The entire list of all physical block numbers comprising the
      // source file is determined by successive calls to bmap()."
      const int64_t first = rf->offset / kBlockSize;
      const int64_t nblocks = (len + kBlockSize - 1) / kBlockSize;
      std::vector<int64_t> map;
      map.reserve(static_cast<size_t>(nblocks));
      for (int64_t i = 0; i < nblocks; ++i) {
        const int64_t pbn = co_await rf->fs()->Bmap(p, rf->inode(), first + i, /*alloc=*/false);
        if (pbn < 0) {
          co_return kErrIo;  // the block map itself is unreadable
        }
        if (pbn == 0) {
          co_return kErrInval;  // holes are not spliceable
        }
        map.push_back(pbn);
      }
      consumed = rf;
      out->source =
          std::make_unique<FileSpliceSource>(&cache_, rf->fs()->dev(), std::move(map), len);
      break;
    }
    case File::Kind::kCharDev: {
      auto* df = static_cast<DeviceFile*>(src.get());
      if (!df->dev()->SupportsRead()) {
        co_return kErrInval;
      }
      out->source = std::make_unique<DeviceSpliceSource>(df->dev(), len, kBlockSize, sink_is_file);
      break;
    }
    case File::Kind::kSocket:
      // Sockets are streams: the splice runs until the zero-length
      // end-of-stream datagram (or cancellation); a byte limit is advisory.
      len = -1;
      out->source =
          std::make_unique<SocketSpliceSource>(static_cast<SocketFile*>(src.get())->socket());
      break;
    case File::Kind::kPipe: {
      auto* pf = static_cast<PipeEndFile*>(src.get());
      if (!pf->read_end()) {
        co_return kErrInval;
      }
      // A pipe is a byte stream: bounded by the byte budget, or unbounded
      // until the writer's EOF (which ReadAsync reports as 0 bytes).
      out->source = std::make_unique<DeviceSpliceSource>(pf->pipe(), len, kBlockSize, sink_is_file);
      break;
    }
  }
  for (const std::shared_ptr<File>& f : dsts) {
    switch (f->kind()) {
      case File::Kind::kRegular: {
        auto* rf = static_cast<RegularFile*>(f.get());
        Inode* ip = rf->inode();
        if (rf->offset % kBlockSize != 0 || len < 0) {
          co_return kErrInval;  // unbounded splice into a file is unsupported
        }
        // Premap the destination, allocating with the special splice bmap
        // (no zero-fill delayed writes) unless the ablation asks for stock.
        const int64_t first = rf->offset / kBlockSize;
        const int64_t nblocks = (len + kBlockSize - 1) / kBlockSize;
        std::vector<int64_t> map;
        map.reserve(static_cast<size_t>(nblocks));
        for (int64_t i = 0; i < nblocks; ++i) {
          const int64_t pbn =
              co_await rf->fs()->Bmap(p, ip, first + i, /*alloc=*/true,
                                      /*for_splice=*/!splice_options_.stock_destination_bmap);
          if (pbn < 0) {
            co_return kErrIo;  // the block map itself is unreadable
          }
          if (pbn == 0) {
            co_return kErrNoSpc;  // device full
          }
          map.push_back(pbn);
        }
        const int64_t start = rf->offset;
        // `keep` pins the open file until completion.
        out->on_moved = [keep = f, ip, start](int64_t moved) {
          static_cast<RegularFile*>(keep.get())->offset = start + moved;
          ip->size = std::max(ip->size, start + moved);
        };
        out->sinks.push_back(
            std::make_unique<FileSpliceSink>(&cache_, rf->fs()->dev(), std::move(map)));
        break;
      }
      case File::Kind::kCharDev: {
        auto* df = static_cast<DeviceFile*>(f.get());
        if (!df->dev()->SupportsWrite()) {
          co_return kErrInval;
        }
        out->sinks.push_back(std::make_unique<DeviceSpliceSink>(&cpu_, df->dev()));
        break;
      }
      case File::Kind::kSocket:
        out->sinks.push_back(std::make_unique<SocketSpliceSink>(
            &cpu_, static_cast<SocketFile*>(f.get())->socket()));
        break;
      case File::Kind::kPipe: {
        auto* pf = static_cast<PipeEndFile*>(f.get());
        if (pf->read_end()) {
          co_return kErrInval;
        }
        out->sinks.push_back(std::make_unique<DeviceSpliceSink>(&cpu_, pf->pipe()));
        break;
      }
    }
  }
  if (consumed != nullptr) {
    consumed->offset += len;
  }
  co_return 0;
}

Task<> Kernel::ChargeSyncSetup(Process& p) {
  const SimDuration charge = cache_.TakeSyncCharge() + splice_.TakeSyncCharge();
  if (charge > 0) {
    co_await cpu_.Use(p, charge);
  }
  // Operator work performed synchronously during setup (chunks that ran the
  // program inside Start on a synchronous device) is charged apart so it
  // lands in the kop.process attribution bucket.
  const SimDuration kcharge = splice_.TakeSyncKopCharge();
  if (kcharge > 0) {
    co_await cpu_.UseKop(p, kcharge);
  }
}

template <typename Dsts>
Task<int64_t> Kernel::SpliceFiles(Process& p, const char* name, std::shared_ptr<File> src,
                                  Dsts dsts, int64_t nbytes,
                                  std::shared_ptr<const KopProgram> prog) {
  // Every end records the outcome: kErrInval for a bind refusal (checked
  // before BuildEndpoints consumes a source file's offset), else 0 up front
  // so a setup failure records its errno against a clean slate.
  int err = KopBinds(prog.get(), dsts) ? 0 : kErrInval;
  SetSpliceError(*src, dsts, err);
  SpliceEndpoints ends;
  if (err == 0) {
    err = co_await BuildEndpoints(p, src, dsts, nbytes, &ends);
  }
  if (err != 0) {
    SetSpliceError(*src, dsts, err);
    SyscallExit(p, name);
    co_return -1;
  }

  // "The splice operates asynchronously if either of the file descriptors
  // have the FASYNC flag enabled."  (Section 3)
  const bool async = src->fasync || std::any_of(dsts.begin(), dsts.end(), [](const auto& d) {
                       return d->fasync;
                     });
  SpliceOptions opts = splice_options_;
  opts.kop_program = std::move(prog);
  // Both endpoints learn the splice's fate: 0 on success, the errno of the
  // first failure otherwise (readable with SpliceError after SIGIO, or
  // alongside the sync path's -1).
  if (async) {
    // Raised before Start and dropped before SIGIO posts, so SpliceStatus
    // can never observe "idle" while the stream is still moving.
    SetSpliceActive(*src, dsts, true);
    ++stats_.splices_async;
    splice_.Start(std::move(ends.source), std::move(ends.sinks), opts,
                  [this, proc = &p, src, files = std::move(dsts),
                   on_moved = std::move(ends.on_moved)](const SpliceCompletion& c) {
                    SetSpliceError(*src, files, c.error);
                    SetSpliceActive(*src, files, false);
                    if (on_moved && !c.io_error) {
                      on_moved(c.bytes_moved);
                    }
                    // "A calling program can opt to catch SIGIO to detect
                    // the completion of an asynchronous splice."
                    cpu_.Post(*proc, kSigIo);
                  });
    co_await ChargeSyncSetup(p);
    SyscallExit(p, name);
    co_return 0;
  }

  ++stats_.splices_sync;
  struct Waiter {
    int64_t moved = 0;
    bool done = false;
  } w;
  SpliceDescriptor* d = splice_.Start(std::move(ends.source), std::move(ends.sinks), opts,
                                      [this, &w, &src, &dsts, &ends](const SpliceCompletion& c) {
                                        SetSpliceError(*src, dsts, c.error);
                                        if (!c.io_error && ends.on_moved) {
                                          ends.on_moved(c.bytes_moved);
                                        }
                                        w.done = true;
                                        w.moved = c.io_error ? -1 : c.bytes_moved;
                                        cpu_.Wakeup(&w);
                                      });
  co_await ChargeSyncSetup(p);
  // "... until an end of file condition is reached or the operation is
  // interrupted by the caller" (Section 3): a signal cancels the transfer;
  // in-flight chunks drain and the partial byte count is returned.
  bool cancelled = false;
  while (!w.done) {
    // Once cancelled, wait uninterruptibly for the drain: the signal that
    // triggered the cancel is still pending (delivered at syscall exit) and
    // must not spin this loop.
    co_await cpu_.Sleep(p, &w, kPriWait, /*interruptible=*/!cancelled);
    if (!w.done && !cancelled && p.SignalPending()) {
      splice_.Cancel(d);
      cancelled = true;
    }
  }
  SyscallExit(p, name);
  co_return w.moved;
}

Task<int64_t> Kernel::Splice(Process& p, int src_fd, int dst_fd, int64_t nbytes) {
  co_await SyscallEnter(p, "splice");
  std::shared_ptr<File> src = GetFile(p, src_fd);
  std::shared_ptr<File> dst = GetFile(p, dst_fd);
  if (src == nullptr || dst == nullptr || !SpliceLengthOk(nbytes) || SelfSplice(*src, *dst)) {
    SyscallExit(p, "splice");
    co_return -1;
  }
  // Operator binding: the source side's program wins; the sink side's rides
  // only when the source has none.
  std::shared_ptr<const KopProgram> prog =
      src->kop_program != nullptr ? src->kop_program : dst->kop_program;
  // A named array: GCC 12 destroys a temporary one passed to the coroutine
  // twice, dropping the descriptor table's reference to `dst`.
  std::array<std::shared_ptr<File>, 1> dsts{std::move(dst)};
  co_return co_await SpliceFiles(p, "splice", std::move(src), std::move(dsts), nbytes,
                                 std::move(prog));
}

// --- in-kernel splice operators ---

std::shared_ptr<const KopProgram> Kernel::GetKopProgram(Process& p, int kop_id) {
  auto pit = kops_.find(&p);
  if (pit == kops_.end()) {
    return nullptr;
  }
  auto it = pit->second.find(kop_id);
  return it == pit->second.end() ? nullptr : it->second;
}

Task<int> Kernel::KopLoad(Process& p, KopProgram prog) {
  co_await SyscallEnter(p, "kop_load");
  int result = -1;
  if (KopVerify(prog, kBlockSize).empty()) {
    // Verification walks every stage once; charge it as operator work so it
    // lands in the kop.process bucket alongside execution charges.
    co_await cpu_.UseKop(
        p, static_cast<SimDuration>(prog.stages.size()) * cpu_.costs().kop_stage_overhead);
    prog.verified = true;
    const int id = next_kop_id_++;
    kops_[&p][id] = std::make_shared<const KopProgram>(std::move(prog));
    ++stats_.kop_loads;
    result = id;
  } else {
    ++stats_.kop_load_failures;
  }
  SyscallExit(p, "kop_load");
  co_return result;
}

Task<int> Kernel::KopAttach(Process& p, int fd, int kop_id) {
  co_await SyscallEnter(p, "kop_attach");
  std::shared_ptr<File> f = GetFile(p, fd);
  int result = -1;
  if (f != nullptr) {
    if (kop_id == 0) {
      f->kop_program = nullptr;
      result = 0;
    } else if (std::shared_ptr<const KopProgram> prog = GetKopProgram(p, kop_id)) {
      f->kop_program = std::move(prog);
      ++stats_.kop_attaches;
      result = 0;
    }
  }
  SyscallExit(p, "kop_attach");
  co_return result;
}

Task<int64_t> Kernel::SpliceMulti(Process& p, int src_fd, const std::vector<int>& dst_fds,
                                  int64_t nbytes) {
  co_await SyscallEnter(p, "splice_multi");
  std::shared_ptr<File> src = GetFile(p, src_fd);
  std::vector<std::shared_ptr<File>> dsts;
  bool ok = src != nullptr && SpliceLengthOk(nbytes);
  for (const int fd : dst_fds) {
    dsts.push_back(GetFile(p, fd));
    ok = ok && dsts.back() != nullptr;
  }
  // Argument refusals record no errno, as in splice(2) and the ring.
  if (!ok) {
    SyscallExit(p, "splice_multi");
    co_return -1;
  }
  // Routing leaves per-sink byte positions undefined, so seekable
  // destinations are refused up front, recording EINVAL on the source.  The
  // fan-out is driven by a route-stage program on the source; the bind check
  // in SpliceFiles matches its declared sink count to the destination list.
  if (dsts.empty() || src->kop_program == nullptr ||
      std::any_of(dsts.begin(), dsts.end(),
                  [](const auto& d) { return d->kind() == File::Kind::kRegular; })) {
    src->splice_error = kErrInval;
    SyscallExit(p, "splice_multi");
    co_return -1;
  }
  co_return co_await SpliceFiles(p, "splice_multi", src, std::move(dsts), nbytes,
                                 src->kop_program);
}

// --- asynchronous splice ring ---

Task<int> Kernel::RingSetup(Process& p, const RingConfig& config) {
  co_await SyscallEnter(p, "ring_setup");
  int result = -kErrInval;
  if (config.sq_entries > 0 && config.cq_entries > 0 && config.max_inflight > 0) {
    const int id = next_ring_id_++;
    rings_[&p][id] = std::make_unique<SpliceRing>(id, &cpu_, &callouts_, &splice_, config);
    result = id;
  }
  SyscallExit(p, "ring_setup");
  co_return result;
}

SpliceRing* Kernel::GetRing(Process& p, int ring_id) {
  auto pit = rings_.find(&p);
  if (pit == rings_.end()) {
    return nullptr;
  }
  auto rit = pit->second.find(ring_id);
  return rit == pit->second.end() ? nullptr : rit->second.get();
}

std::vector<SpliceRing*> Kernel::Rings() {
  std::vector<SpliceRing*> out;
  for (auto& [proc, rings] : rings_) {
    for (auto& [id, ring] : rings) {
      out.push_back(ring.get());
    }
  }
  return out;
}

int Kernel::RingPrepare(Process& p, int ring_id, const SpliceSqe& sqe) {
  SpliceRing* ring = GetRing(p, ring_id);
  if (ring == nullptr) {
    return -kErrBadf;
  }
  ring->Prepare(sqe);
  return 0;
}

int Kernel::RingHarvest(Process& p, int ring_id, SpliceCqe* out, int max) {
  SpliceRing* ring = GetRing(p, ring_id);
  if (ring == nullptr) {
    return -kErrBadf;
  }
  return ring->Harvest(out, max);
}

Task<int> Kernel::ResolveSqe(Process& p, SpliceRing::Op* op) {
  const SpliceSqe& sqe = op->sqe;
  std::shared_ptr<File> src = GetFile(p, sqe.src_fd);
  std::shared_ptr<File> dst = GetFile(p, sqe.dst_fd);
  if (src == nullptr || dst == nullptr) {
    co_return -kErrBadf;
  }
  // splice(2)'s refusals, except that the SQE names its program (kop_id 0:
  // none) instead of taking the attached one.
  std::shared_ptr<const KopProgram> prog;
  if (sqe.kop_id != 0) {
    prog = GetKopProgram(p, sqe.kop_id);
  }
  const std::span<const std::shared_ptr<File>> dsts(&dst, 1);
  if (!SpliceLengthOk(sqe.nbytes) || SelfSplice(*src, *dst) ||
      (prog == nullptr && sqe.kop_id != 0) || !KopBinds(prog.get(), dsts)) {
    co_return -kErrInval;
  }
  if (const int err = co_await BuildEndpoints(p, src, dsts, sqe.nbytes, &op->ends); err != 0) {
    co_return -err;
  }
  op->opts = splice_options_;
  op->opts.kop_program = std::move(prog);
  co_return 0;
}

Task<int> Kernel::RingEnter(Process& p, int ring_id, int to_submit, int min_complete) {
  co_await SyscallEnter(p, "ring_enter");
  SpliceRing* ring = GetRing(p, ring_id);
  if (ring == nullptr) {
    SyscallExit(p, "ring_enter");
    co_return -kErrBadf;
  }

  int submitted = 0;
  bool sq_full = false;
  while (submitted < to_submit && ring->NextGroupSize() > 0) {
    const int gsize = ring->NextGroupSize();
    // A linked group is admitted whole or not at all; it may round the
    // batch past to_submit.
    while (!ring->CanAdmit(gsize) && ring->config().block_on_full && !p.SignalPending()) {
      co_await cpu_.Sleep(p, ring->SqSpaceChan(), kPriWait, /*interruptible=*/true);
    }
    if (!ring->CanAdmit(gsize)) {
      sq_full = true;
      break;
    }
    // The group's SQEs go straight into ring op slots and resolve there.  A
    // malformed SQE stops the resolution: nothing in its group starts.
    SpliceRing::Op* const group = ring->ClaimGroup(gsize);
    SpliceRing::Op* bad = nullptr;
    int bad_error = 0;
    for (SpliceRing::Op* op = group; op != nullptr && bad == nullptr; op = op->group_next) {
      if (const int rc = co_await ResolveSqe(p, op); rc < 0) {
        bad = op;
        bad_error = -rc;
      }
    }
    ring->AdmitGroup(group, bad, bad_error);
    submitted += gsize;
  }
  if (submitted > 0) {
    ring->NoteSubmitBatch(submitted);
  }
  // Endpoint setup and any synchronous-device work above ran in this
  // process's context; charge it here, all under the one trap.
  co_await ChargeSyncSetup(p);

  if (submitted == 0 && sq_full && !ring->config().block_on_full) {
    ring->NoteEagain();
    SyscallExit(p, "ring_enter");
    co_return -kErrAgain;
  }

  // Wait for completions — but never for more than can still arrive, so a
  // min_complete above the outstanding count cannot hang the process.
  while (!p.SignalPending()) {
    const int target = std::min(min_complete, ring->CqAvailable() + ring->unfinished());
    if (ring->CqAvailable() >= target) {
      break;
    }
    co_await cpu_.Sleep(p, ring->CqChan(), kPriWait, /*interruptible=*/true);
  }
  SyscallExit(p, "ring_enter");
  co_return submitted;
}

Task<int> Kernel::RingCancel(Process& p, int ring_id, uint64_t cookie) {
  co_await SyscallEnter(p, "ring_cancel");
  SpliceRing* ring = GetRing(p, ring_id);
  const int result = ring == nullptr ? -kErrBadf : ring->Cancel(cookie);
  SyscallExit(p, "ring_cancel");
  co_return result;
}

// --- signals, timers, pause ---

Task<> Kernel::Pause(Process& p) {
  co_await SyscallEnter(p, "pause");
  while (!p.SignalPending()) {
    co_await cpu_.Sleep(p, &p, kPriWait, /*interruptible=*/true);
  }
  SyscallExit(p, "pause");  // TakeSignals runs the handlers
}

Task<> Kernel::SleepFor(Process& p, SimDuration d) {
  co_await SyscallEnter(p, "sleep");
  struct Flag {
    bool fired = false;
  } flag;
  sim_->After(d, [this, &flag] {
    flag.fired = true;
    cpu_.Wakeup(&flag);
  });
  while (!flag.fired) {
    co_await cpu_.Sleep(p, &flag, kPriWait);
  }
  SyscallExit(p, "sleep");
}

void Kernel::Sigaction(Process& p, int sig, EventFn handler) {
  p.Sigaction(sig, std::move(handler));
}

void Kernel::Setitimer(Process& p, SimDuration interval) {
  Itimer& t = itimers_[&p];
  t.ticks = std::max<int64_t>(1, interval / callouts_.TickDuration());
  if (t.armed) {
    return;  // already ticking; new interval takes effect from the next fire
  }
  t.armed = true;
  Process* proc = &p;
  t.callout = callouts_.Timeout([this, proc] { FireItimer(proc); }, t.ticks);
}

void Kernel::FireItimer(Process* p) {
  Itimer& timer = itimers_[p];
  if (!timer.armed) {
    return;
  }
  cpu_.Post(*p, kSigAlrm);
  timer.callout = callouts_.Timeout([this, p] { FireItimer(p); }, timer.ticks);
}

void Kernel::StopItimer(Process& p) {
  auto it = itimers_.find(&p);
  if (it == itimers_.end()) {
    return;
  }
  it->second.armed = false;
  if (it->second.callout != kInvalidCalloutId) {
    callouts_.Untimeout(it->second.callout);
    it->second.callout = kInvalidCalloutId;
  }
}

int Kernel::OpenSocket(Process& p, UdpSocket* sock) {
  return Install(p, std::make_shared<SocketFile>(&cpu_, sock));
}

Task<int> Kernel::CreatePipe(Process& p, int* read_fd, int* write_fd) {
  co_await SyscallEnter(p, "pipe");
  auto pipe = std::make_shared<Pipe>();
  *read_fd = Install(p, std::make_shared<PipeEndFile>(&cpu_, pipe, /*read_end=*/true));
  *write_fd = Install(p, std::make_shared<PipeEndFile>(&cpu_, pipe, /*read_end=*/false));
  SyscallExit(p, "pipe");
  co_return 0;
}

}  // namespace ikdp
