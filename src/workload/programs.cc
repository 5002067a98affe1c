#include "src/workload/programs.h"

#include <utility>
#include <vector>

namespace ikdp {

Task<> CpProgram(Kernel& k, Process& p, std::string src, std::string dst, int64_t chunk,
                 CopyResult* out) {
  out->start = k.sim()->Now();
  const int sfd = co_await k.Open(p, src, kOpenRead);
  const int dfd = co_await k.Open(p, dst, kOpenWrite | kOpenCreate | kOpenTrunc);
  if (sfd < 0 || dfd < 0) {
    out->end = k.sim()->Now();
    co_return;
  }
  std::vector<uint8_t> buf;
  for (;;) {
    const int64_t n = co_await k.Read(p, sfd, chunk, &buf);
    if (n <= 0) {
      break;
    }
    const int64_t put = co_await k.Write(p, dfd, buf.data(), n);
    if (put != n) {
      break;
    }
    out->bytes += n;
  }
  co_await k.FsyncFd(p, dfd);
  co_await k.Close(p, sfd);
  co_await k.Close(p, dfd);
  out->end = k.sim()->Now();
  out->ok = true;
}

Task<> ScpProgram(Kernel& k, Process& p, std::string src, std::string dst, CopyResult* out) {
  out->start = k.sim()->Now();
  const int sfd = co_await k.Open(p, src, kOpenRead);
  const int dfd = co_await k.Open(p, dst, kOpenWrite | kOpenCreate | kOpenTrunc);
  if (sfd < 0 || dfd < 0) {
    out->end = k.sim()->Now();
    co_return;
  }
  const int64_t moved = co_await k.Splice(p, sfd, dfd, kSpliceEof);
  out->bytes = moved > 0 ? moved : 0;
  co_await k.Close(p, sfd);
  co_await k.Close(p, dfd);
  out->end = k.sim()->Now();
  out->ok = moved >= 0;
}

Task<> TestProgram(Kernel& k, Process& p, SimDuration op_cost, TestProgramState* state) {
  while (!state->stop) {
    co_await k.cpu().Use(p, op_cost);
    ++state->ops;
  }
}

Task<> MultiStreamCopyProgram(Kernel& k, Process& p, SubmitMode mode,
                              std::vector<StreamSpec> streams, MultiStreamResult* out,
                              RingConfig ring_config) {
  out->start = k.sim()->Now();
  const SimDuration trap_time0 = p.stats().trap_time;
  const uint64_t traps0 = p.stats().syscall_traps;
  auto finish = [&](bool ok) {
    out->end = k.sim()->Now();
    out->ok = ok;
    out->trap_time = p.stats().trap_time - trap_time0;
    out->syscall_traps = p.stats().syscall_traps - traps0;
  };

  const int n = static_cast<int>(streams.size());
  std::vector<int> sfd(n, -1);
  std::vector<int> dfd(n, -1);
  bool open_ok = true;
  for (int i = 0; i < n; ++i) {
    if (streams[i].nbytes <= 0) {
      open_ok = false;  // explicit sizes only; see StreamSpec
      break;
    }
    sfd[i] = co_await k.Open(p, streams[i].src, kOpenRead);
    dfd[i] = co_await k.Open(p, streams[i].dst, kOpenWrite | kOpenCreate | kOpenTrunc);
    if (sfd[i] < 0 || dfd[i] < 0) {
      open_ok = false;
      break;
    }
  }
  if (!open_ok) {
    finish(false);
    co_return;
  }

  bool moved_ok = true;
  switch (mode) {
    case SubmitMode::kSyncLoop: {
      for (int i = 0; i < n; ++i) {
        const int64_t moved = co_await k.Splice(p, sfd[i], dfd[i], streams[i].nbytes);
        if (moved != streams[i].nbytes) {
          moved_ok = false;
          ++out->streams_errored;
          const int err = co_await k.SpliceError(p, dfd[i]);
          if (out->first_errno == 0 && err != 0) {
            out->first_errno = err;
          }
          continue;
        }
        out->bytes += moved;
        ++out->streams_completed;
      }
      break;
    }
    case SubmitMode::kFasyncSigio: {
      // The paper's interface: one SIGIO per completion, no per-operation
      // status, and signals coalesce while pending.  The only way to learn
      // WHICH splice finished is to poll each destination offset with
      // tell(2) — a full trap per probe.
      uint64_t sigio_seen = 0;
      k.Sigaction(p, kSigIo, [&sigio_seen] { ++sigio_seen; });
      std::vector<bool> done(n, false);
      int remaining = n;
      for (int i = 0; i < n; ++i) {
        if (co_await k.Fcntl(p, dfd[i], /*fasync=*/true) != 0 ||
            co_await k.Splice(p, sfd[i], dfd[i], streams[i].nbytes) != 0) {
          // Setup refused this stream (e.g. its destination premap hit an
          // unreadable indirect block).  It is already over — count it
          // errored and keep waiting for the streams that did launch.
          moved_ok = false;
          done[i] = true;
          --remaining;
          ++out->streams_errored;
          const int err = co_await k.SpliceError(p, dfd[i]);
          if (out->first_errno == 0 && err != 0) {
            out->first_errno = err;
          }
        }
      }
      while (remaining > 0) {
        const uint64_t sweep_start = sigio_seen;
        for (int i = 0; i < n; ++i) {
          if (done[i]) {
            continue;
          }
          const int64_t off = co_await k.Tell(p, dfd[i]);
          if (off >= streams[i].nbytes) {
            done[i] = true;
            --remaining;
            out->bytes += streams[i].nbytes;
            ++out->streams_completed;
            continue;
          }
          // The offset stalls short of the target both while the stream is
          // still moving and after a mid-stream error, so an unfinished
          // stream costs a second probe trap to rule the error out.  Without
          // it an aborted stream would leave this loop pausing forever.
          const int err = co_await k.SpliceError(p, dfd[i]);
          if (err != 0) {
            done[i] = true;
            --remaining;
            ++out->streams_errored;
            if (out->first_errno == 0) {
              out->first_errno = err;
            }
            moved_ok = false;
          }
        }
        if (remaining == 0) {
          break;
        }
        // A completion that landed during the sweep was already polled past;
        // its signal is consumed, so pausing could hang.  Re-sweep instead.
        if (sigio_seen != sweep_start) {
          continue;
        }
        co_await k.Pause(p);
      }
      out->sigio_handled = sigio_seen;
      break;
    }
    case SubmitMode::kRing: {
      const int ring = co_await k.RingSetup(p, ring_config);
      if (ring < 0) {
        moved_ok = false;
        break;
      }
      for (int i = 0; i < n; ++i) {
        SpliceSqe sqe;
        sqe.src_fd = sfd[i];
        sqe.dst_fd = dfd[i];
        sqe.nbytes = streams[i].nbytes;
        sqe.cookie = static_cast<uint64_t>(i);
        (void)k.RingPrepare(p, ring, sqe);  // fails only for a bad ring id
      }
      // ONE trap submits the batch and waits for every completion; the
      // harvest below reads posted CQEs without re-entering the kernel.
      const int rc = co_await k.RingEnter(p, ring, n, n);
      if (rc != n) {
        moved_ok = false;
      }
      std::vector<SpliceCqe> cqes(static_cast<size_t>(n) + 1);
      const int got = k.RingHarvest(p, ring, cqes.data(), n);
      out->ring_cqes = got;
      for (int i = 0; i < got; ++i) {
        const int idx = static_cast<int>(cqes[i].cookie);
        if (idx < 0 || idx >= n) {
          moved_ok = false;
          continue;
        }
        if (cqes[i].error != 0) {
          moved_ok = false;
          ++out->streams_errored;
          if (out->first_errno == 0) {
            out->first_errno = cqes[i].error;
          }
          continue;
        }
        if (cqes[i].result != streams[idx].nbytes) {
          moved_ok = false;
          continue;
        }
        out->bytes += cqes[i].result;
        ++out->streams_completed;
      }
      if (got != n) {
        moved_ok = false;
      }
      break;
    }
  }

  for (int i = 0; i < n; ++i) {
    co_await k.Close(p, sfd[i]);
    co_await k.Close(p, dfd[i]);
  }
  finish(moved_ok && out->streams_completed == n);
}

}  // namespace ikdp
