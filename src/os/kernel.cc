#include "src/os/kernel.h"

#include <algorithm>
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

Task<std::unique_ptr<SpliceSource>> Kernel::MakeSource(Process& p,
                                                       const std::shared_ptr<File>& f,
                                                       int64_t nbytes, bool sink_is_file,
                                                       int64_t* resolved_bytes, int* err) {
  *resolved_bytes = -1;
  *err = kErrInval;
  switch (f->kind()) {
    case File::Kind::kRegular: {
      auto* rf = static_cast<RegularFile*>(f.get());
      Inode* ip = rf->inode();
      if (rf->offset % kBlockSize != 0) {
        co_return nullptr;  // file splices require block-aligned offsets
      }
      const int64_t avail = ip->size - rf->offset;
      const int64_t len = nbytes == kSpliceEof ? avail : std::min(nbytes, avail);
      if (len < 0) {
        co_return nullptr;
      }
      // "The entire list of all physical block numbers comprising the
      // source file is determined by successive calls to bmap()."
      const int64_t first = rf->offset / kBlockSize;
      const int64_t nblocks = (len + kBlockSize - 1) / kBlockSize;
      std::vector<int64_t> map;
      map.reserve(static_cast<size_t>(nblocks));
      for (int64_t i = 0; i < nblocks; ++i) {
        const int64_t pbn = co_await rf->fs()->Bmap(p, ip, first + i, /*alloc=*/false);
        if (pbn < 0) {
          *err = kErrIo;  // the block map itself is unreadable
          co_return nullptr;
        }
        if (pbn == 0) {
          co_return nullptr;  // holes are not spliceable
        }
        map.push_back(pbn);
      }
      rf->offset += len;
      *resolved_bytes = len;
      co_return std::make_unique<FileSpliceSource>(&cache_, rf->fs()->dev(), std::move(map),
                                                   len);
    }
    case File::Kind::kCharDev: {
      auto* df = static_cast<DeviceFile*>(f.get());
      if (!df->dev()->SupportsRead()) {
        co_return nullptr;
      }
      const int64_t len = nbytes == kSpliceEof ? -1 : nbytes;
      *resolved_bytes = len;
      co_return std::make_unique<DeviceSpliceSource>(df->dev(), len, kBlockSize, sink_is_file);
    }
    case File::Kind::kSocket: {
      auto* sf = static_cast<SocketFile*>(f.get());
      // Sockets are streams: the splice runs until the zero-length
      // end-of-stream datagram (or cancellation); a byte limit is advisory.
      co_return std::make_unique<SocketSpliceSource>(sf->socket());
    }
    case File::Kind::kPipe: {
      auto* pf = static_cast<PipeEndFile*>(f.get());
      if (!pf->read_end()) {
        co_return nullptr;
      }
      // A pipe is a byte stream: bounded by the byte budget, or unbounded
      // until the writer's EOF (which ReadAsync reports as 0 bytes).
      const int64_t len = nbytes == kSpliceEof ? -1 : nbytes;
      *resolved_bytes = len;
      co_return std::make_unique<DeviceSpliceSource>(pf->pipe(), len, kBlockSize, sink_is_file);
    }
  }
  co_return nullptr;
}

Task<std::unique_ptr<SpliceSink>> Kernel::MakeSink(Process& p, const std::shared_ptr<File>& f,
                                                   int64_t nbytes,
                                                   InlineFn<void(int64_t)>* on_moved,
                                                   int* err) {
  *err = kErrInval;
  switch (f->kind()) {
    case File::Kind::kRegular: {
      auto* rf = static_cast<RegularFile*>(f.get());
      Inode* ip = rf->inode();
      if (rf->offset % kBlockSize != 0 || nbytes < 0) {
        co_return nullptr;  // unbounded splice into a file is unsupported
      }
      // Premap the destination, allocating with the special splice bmap
      // (no zero-fill delayed writes) unless the ablation asks for stock.
      const int64_t first = rf->offset / kBlockSize;
      const int64_t nblocks = (nbytes + kBlockSize - 1) / kBlockSize;
      std::vector<int64_t> map;
      map.reserve(static_cast<size_t>(nblocks));
      for (int64_t i = 0; i < nblocks; ++i) {
        const int64_t pbn =
            co_await rf->fs()->Bmap(p, ip, first + i, /*alloc=*/true,
                                    /*for_splice=*/!splice_options_.stock_destination_bmap);
        if (pbn < 0) {
          *err = kErrIo;  // the block map itself is unreadable
          co_return nullptr;
        }
        if (pbn == 0) {
          *err = kErrNoSpc;  // device full
          co_return nullptr;
        }
        map.push_back(pbn);
      }
      const int64_t start = rf->offset;
      std::shared_ptr<File> keep = f;  // pin the open file until completion
      *on_moved = [keep, ip, start](int64_t moved) {
        auto* file = static_cast<RegularFile*>(keep.get());
        file->offset = start + moved;
        ip->size = std::max(ip->size, start + moved);
      };
      co_return std::make_unique<FileSpliceSink>(&cache_, rf->fs()->dev(), std::move(map));
    }
    case File::Kind::kCharDev: {
      auto* df = static_cast<DeviceFile*>(f.get());
      if (!df->dev()->SupportsWrite()) {
        co_return nullptr;
      }
      co_return std::make_unique<DeviceSpliceSink>(&cpu_, df->dev());
    }
    case File::Kind::kSocket: {
      auto* sf = static_cast<SocketFile*>(f.get());
      co_return std::make_unique<SocketSpliceSink>(&cpu_, sf->socket());
    }
    case File::Kind::kPipe: {
      auto* pf = static_cast<PipeEndFile*>(f.get());
      if (pf->read_end()) {
        co_return nullptr;
      }
      co_return std::make_unique<DeviceSpliceSink>(&cpu_, pf->pipe());
    }
  }
  co_return nullptr;
}

Task<int64_t> Kernel::Splice(Process& p, int src_fd, int dst_fd, int64_t nbytes) {
  co_await SyscallEnter(p, "splice");
  std::shared_ptr<File> src = GetFile(p, src_fd);
  std::shared_ptr<File> dst = GetFile(p, dst_fd);
  if (src == nullptr || dst == nullptr || (nbytes < 0 && nbytes != kSpliceEof)) {
    SyscallExit(p, "splice");
    co_return -1;
  }
  if (src->kind() == File::Kind::kRegular && dst->kind() == File::Kind::kRegular &&
      static_cast<RegularFile*>(src.get())->inode() ==
          static_cast<RegularFile*>(dst.get())->inode()) {
    // Splicing a file onto itself would interleave reads and writes over one
    // block map; refuse it (the paper's splice has no such mode either).
    SyscallExit(p, "splice");
    co_return -1;
  }
  // Operator binding: the source side's program wins; the sink side's rides
  // only when the source has none.  Bind-rule refusals — a fan-out program
  // on a two-fd splice, or a dropping program over a seekable sink whose
  // offset bookkeeping assumes contiguous bytes — are EINVAL *before* any
  // endpoint state is consumed (MakeSource advances the file offset).
  const std::shared_ptr<const KopProgram> kprog =
      src->kop_program != nullptr ? src->kop_program : dst->kop_program;
  if (kprog != nullptr &&
      (!kprog->verified || kprog->SinkCount() != 1 ||
       (kprog->CanDrop() && dst->kind() == File::Kind::kRegular))) {
    src->splice_error = kErrInval;
    dst->splice_error = kErrInval;
    SyscallExit(p, "splice");
    co_return -1;
  }
  // Stale status from a previous splice is cleared up front so a setup
  // failure below records its errno against a clean slate.
  src->splice_error = 0;
  dst->splice_error = 0;
  int setup_err = kErrInval;
  int64_t resolved = -1;
  const bool sink_is_file = dst->kind() == File::Kind::kRegular;
  std::unique_ptr<SpliceSource> source =
      co_await MakeSource(p, src, nbytes, sink_is_file, &resolved, &setup_err);
  if (source == nullptr) {
    src->splice_error = setup_err;
    dst->splice_error = setup_err;
    SyscallExit(p, "splice");
    co_return -1;
  }
  InlineFn<void(int64_t)> on_moved;
  std::unique_ptr<SpliceSink> sink = co_await MakeSink(p, dst, resolved, &on_moved, &setup_err);
  if (sink == nullptr) {
    src->splice_error = setup_err;
    dst->splice_error = setup_err;
    SyscallExit(p, "splice");
    co_return -1;
  }

  // "The splice operates asynchronously if either of the file descriptors
  // have the FASYNC flag enabled."  (Section 3)
  const bool async = src->fasync || dst->fasync;
  SpliceOptions opts = splice_options_;
  opts.kop_program = kprog;
  // The initial read batch is issued from this process's context inside
  // Start(); synchronous devices perform their copies right there, so the
  // accumulated cost lands on the caller.
  auto charge_setup = [this, &p]() -> Task<> {
    const SimDuration charge = cache_.TakeSyncCharge() + splice_.TakeSyncCharge();
    if (charge > 0) {
      co_await cpu_.Use(p, charge);
    }
    // Operator work performed synchronously during setup (chunks that ran
    // the program inside StartEx on a synchronous device) is charged apart
    // so it lands in the kop.process attribution bucket.
    const SimDuration kcharge = splice_.TakeSyncKopCharge();
    if (kcharge > 0) {
      co_await cpu_.UseKop(p, kcharge);
    }
  };
  // Both endpoints learn the splice's fate: 0 on success, the errno of the
  // first failure otherwise (readable with SpliceError after SIGIO, or
  // alongside the sync path's -1).
  if (async) {
    ++stats_.splices_async;
    Process* proc = &p;
    // Raised before StartEx and dropped before SIGIO posts, so SpliceStatus
    // can never observe "idle" while the stream is still moving.
    src->splice_active = true;
    dst->splice_active = true;
    splice_.StartEx(
        std::move(source), std::move(sink), opts,
        [this, proc, on_moved = std::move(on_moved), src, dst](const SpliceCompletion& c) {
          src->splice_error = c.error;
          dst->splice_error = c.error;
          src->splice_active = false;
          dst->splice_active = false;
          if (on_moved && !c.io_error) {
            on_moved(c.bytes_moved);
          }
          // "A calling program can opt to catch SIGIO to detect
          // the completion of an asynchronous splice."
          cpu_.Post(*proc, kSigIo);
        });
    co_await charge_setup();
    SyscallExit(p, "splice");
    co_return 0;
  }

  ++stats_.splices_sync;
  struct Waiter {
    bool done = false;
    int64_t moved = 0;
  } w;
  SpliceDescriptor* d = splice_.StartEx(
      std::move(source), std::move(sink), opts,
      [this, &w, on_moved = std::move(on_moved), src, dst](const SpliceCompletion& c) {
        src->splice_error = c.error;
        dst->splice_error = c.error;
        if (on_moved && !c.io_error) {
          on_moved(c.bytes_moved);
        }
        w.done = true;
        w.moved = c.io_error ? -1 : c.bytes_moved;
        cpu_.Wakeup(&w);
      });
  co_await charge_setup();
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
  SyscallExit(p, "splice");
  co_return w.moved;
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
  bool ok = src != nullptr && (nbytes >= 0 || nbytes == kSpliceEof) && !dst_fds.empty();
  if (ok) {
    for (const int fd : dst_fds) {
      std::shared_ptr<File> d = GetFile(p, fd);
      // Routing leaves per-sink byte positions undefined, so seekable
      // destinations are refused up front.
      if (d == nullptr || d->kind() == File::Kind::kRegular) {
        ok = false;
        break;
      }
      dsts.push_back(std::move(d));
    }
  }
  // The fan-out is driven by a route-stage program on the source; its
  // declared sink count must match the destination list exactly.
  const std::shared_ptr<const KopProgram> kprog = ok ? src->kop_program : nullptr;
  if (kprog == nullptr || !kprog->verified ||
      kprog->SinkCount() != static_cast<int>(dst_fds.size())) {
    if (src != nullptr) {
      src->splice_error = kErrInval;
    }
    for (const auto& d : dsts) {
      d->splice_error = kErrInval;
    }
    SyscallExit(p, "splice_multi");
    co_return -1;
  }
  src->splice_error = 0;
  for (const auto& d : dsts) {
    d->splice_error = 0;
  }
  int setup_err = kErrInval;
  int64_t resolved = -1;
  std::unique_ptr<SpliceSource> source =
      co_await MakeSource(p, src, nbytes, /*sink_is_file=*/false, &resolved, &setup_err);
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  if (source != nullptr) {
    for (const auto& d : dsts) {
      std::unique_ptr<SpliceSink> sink = co_await MakeSink(p, d, resolved, nullptr, &setup_err);
      if (sink == nullptr) {
        break;
      }
      sinks.push_back(std::move(sink));
    }
  }
  if (source == nullptr || sinks.size() != dsts.size()) {
    src->splice_error = setup_err;
    for (const auto& d : dsts) {
      d->splice_error = setup_err;
    }
    SyscallExit(p, "splice_multi");
    co_return -1;
  }

  bool async = src->fasync;
  for (const auto& d : dsts) {
    async = async || d->fasync;
  }
  SpliceOptions opts = splice_options_;
  opts.kop_program = kprog;
  auto charge_setup = [this, &p]() -> Task<> {
    const SimDuration charge = cache_.TakeSyncCharge() + splice_.TakeSyncCharge();
    if (charge > 0) {
      co_await cpu_.Use(p, charge);
    }
    const SimDuration kcharge = splice_.TakeSyncKopCharge();
    if (kcharge > 0) {
      co_await cpu_.UseKop(p, kcharge);
    }
  };
  if (async) {
    ++stats_.splices_async;
    Process* proc = &p;
    src->splice_active = true;
    for (const auto& d : dsts) {
      d->splice_active = true;
    }
    splice_.StartMulti(std::move(source), std::move(sinks), opts,
                       [this, proc, src, dsts](const SpliceCompletion& c) {
                         src->splice_error = c.error;
                         src->splice_active = false;
                         for (const auto& d : dsts) {
                           d->splice_error = c.error;
                           d->splice_active = false;
                         }
                         cpu_.Post(*proc, kSigIo);
                       });
    co_await charge_setup();
    SyscallExit(p, "splice_multi");
    co_return 0;
  }

  ++stats_.splices_sync;
  struct Waiter {
    bool done = false;
    int64_t moved = 0;
  } w;
  SpliceDescriptor* d = splice_.StartMulti(std::move(source), std::move(sinks), opts,
                                           [this, &w, src, dsts](const SpliceCompletion& c) {
                                             src->splice_error = c.error;
                                             for (const auto& dst : dsts) {
                                               dst->splice_error = c.error;
                                             }
                                             w.done = true;
                                             w.moved = c.io_error ? -1 : c.bytes_moved;
                                             cpu_.Wakeup(&w);
                                           });
  co_await charge_setup();
  bool cancelled = false;
  while (!w.done) {
    co_await cpu_.Sleep(p, &w, kPriWait, /*interruptible=*/!cancelled);
    if (!w.done && !cancelled && p.SignalPending()) {
      splice_.Cancel(d);
      cancelled = true;
    }
  }
  SyscallExit(p, "splice_multi");
  co_return w.moved;
}

// --- asynchronous splice ring ---

Task<int> Kernel::RingSetup(Process& p, const RingConfig& config) {
  co_await SyscallEnter(p, "ring_setup");
  int result = -kAioEInval;
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
    return -kAioEBadf;
  }
  ring->Prepare(sqe);
  return 0;
}

int Kernel::RingHarvest(Process& p, int ring_id, SpliceCqe* out, int max) {
  SpliceRing* ring = GetRing(p, ring_id);
  if (ring == nullptr) {
    return -kAioEBadf;
  }
  return ring->Harvest(out, max);
}

Task<int> Kernel::ResolveSqe(Process& p, const SpliceSqe& sqe, SpliceRing::PreparedOp* out) {
  std::shared_ptr<File> src = GetFile(p, sqe.src_fd);
  std::shared_ptr<File> dst = GetFile(p, sqe.dst_fd);
  if (src == nullptr || dst == nullptr) {
    co_return -kAioEBadf;
  }
  if (sqe.nbytes < 0 && sqe.nbytes != kSpliceEof) {
    co_return -kAioEInval;
  }
  if (src->kind() == File::Kind::kRegular && dst->kind() == File::Kind::kRegular &&
      static_cast<RegularFile*>(src.get())->inode() ==
          static_cast<RegularFile*>(dst.get())->inode()) {
    co_return -kAioEInval;
  }
  // Resolve the SQE's operator program under the same bind rules as Splice:
  // ring ops have exactly one sink, and a dropping program over a seekable
  // sink would corrupt the on_moved offset bookkeeping.  Checked before
  // MakeSource so a refused SQE doesn't consume the file offset.
  std::shared_ptr<const KopProgram> kprog;
  if (sqe.kop_id != 0) {
    kprog = GetKopProgram(p, sqe.kop_id);
    if (kprog == nullptr || !kprog->verified || kprog->SinkCount() != 1 ||
        (kprog->CanDrop() && dst->kind() == File::Kind::kRegular)) {
      co_return -kAioEInval;
    }
  }
  int setup_err = kErrInval;
  int64_t resolved = -1;
  const bool sink_is_file = dst->kind() == File::Kind::kRegular;
  std::unique_ptr<SpliceSource> source =
      co_await MakeSource(p, src, sqe.nbytes, sink_is_file, &resolved, &setup_err);
  if (source == nullptr) {
    co_return -setup_err;  // kErrInval aliases kAioEInval, kErrIo kAioEIo
  }
  InlineFn<void(int64_t)> on_moved;
  std::unique_ptr<SpliceSink> sink = co_await MakeSink(p, dst, resolved, &on_moved, &setup_err);
  if (sink == nullptr) {
    co_return -setup_err;
  }
  out->sqe = sqe;
  out->source = std::move(source);
  out->sink = std::move(sink);
  out->on_moved = std::move(on_moved);
  out->opts = splice_options_;
  out->opts.kop_program = std::move(kprog);
  co_return 0;
}

Task<int> Kernel::RingEnter(Process& p, int ring_id, int to_submit, int min_complete) {
  co_await SyscallEnter(p, "ring_enter");
  SpliceRing* ring = GetRing(p, ring_id);
  if (ring == nullptr) {
    SyscallExit(p, "ring_enter");
    co_return -kAioEBadf;
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
    std::vector<SpliceSqe> sqes;
    sqes.reserve(gsize);
    for (int i = 0; i < gsize; ++i) {
      sqes.push_back(ring->PopPrepared());
    }
    std::vector<SpliceRing::PreparedOp> ops;
    int bad_index = -1;
    int bad_error = 0;
    for (int i = 0; i < gsize; ++i) {
      SpliceRing::PreparedOp op;
      const int rc = co_await ResolveSqe(p, sqes[i], &op);
      if (rc < 0) {
        bad_index = i;
        bad_error = -rc;
        break;
      }
      ops.push_back(std::move(op));
    }
    if (bad_index >= 0) {
      // The malformed SQE fails with its own error; a partial pipeline
      // cannot run, so the rest of its group fails ECANCELED.  Nothing in
      // the group starts.
      for (int i = 0; i < gsize; ++i) {
        ring->FailSqe(sqes[i], i == bad_index ? bad_error : kAioECanceled);
      }
    } else {
      ring->AdmitGroup(std::move(ops));
    }
    submitted += gsize;
  }
  if (submitted > 0) {
    ring->NoteSubmitBatch(submitted);
  }
  // Endpoint setup and any synchronous-device work above ran in this
  // process's context; charge it here, all under the one trap.
  {
    const SimDuration charge = cache_.TakeSyncCharge() + splice_.TakeSyncCharge();
    if (charge > 0) {
      co_await cpu_.Use(p, charge);
    }
    const SimDuration kcharge = splice_.TakeSyncKopCharge();
    if (kcharge > 0) {
      co_await cpu_.UseKop(p, kcharge);
    }
  }

  if (submitted == 0 && sq_full && !ring->config().block_on_full) {
    ring->NoteEagain();
    SyscallExit(p, "ring_enter");
    co_return -kAioEAgain;
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
  const int result = ring == nullptr ? -kAioEBadf : ring->Cancel(cookie);
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
