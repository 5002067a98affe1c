// Deterministic fault injection for the simulated hardware.
//
// The paper's evaluation runs on a friendly machine: devices never error
// mid-transfer and the wire never loses a frame.  Real kernels earn their
// keep on the bad days, so the disk and link models accept a *fault plan* —
// probabilistic error rates, latency spikes, transient-vs-permanent media
// errors, disk-full on write, frame loss and delivery jitter — seeded from
// its own Rng so every run is exactly reproducible.
//
// Determinism contract: with no plan installed (the default) the models draw
// ZERO random numbers and execute the exact pre-fault code paths, so the
// paper tables stay byte-identical (perturb_tables checks this across
// seeds).  With a plan installed, outcomes are a pure function of the seed
// and the request sequence.
//
// Error identity rides an errno (kErrIo / kErrNoSpc) from the device
// through biodone() and the buffer cache into the splice engine and the
// ring's CQEs — see docs/faults.md for the layer-by-layer propagation map.

#ifndef SRC_HW_FAULT_H_
#define SRC_HW_FAULT_H_

#include <cstdint>

#include "src/sim/time.h"

namespace ikdp {

// The errno table (positive, classic UNIX numbering; syscalls that return
// -errno negate these).  The hardware models originate EIO and ENOSPC; the
// splice, ring and syscall layers the rest.
inline constexpr int kErrNoent = 2;       // ENOENT: unknown ring cookie
inline constexpr int kErrIo = 5;          // EIO: unrecoverable media/transfer error
inline constexpr int kErrBadf = 9;        // EBADF: bad ring id or file descriptor
inline constexpr int kErrAgain = 11;      // EAGAIN: submission queue full
inline constexpr int kErrBusy = 16;       // EBUSY: ring op already started
inline constexpr int kErrInval = 22;      // EINVAL: endpoint refuses the operation
inline constexpr int kErrNoSpc = 28;      // ENOSPC: write beyond the byte budget
inline constexpr int kErrCanceled = 125;  // ECANCELED: cancelled ring op

// Per-device fault plan for DiskModel.  All knobs default to "off"; a plan
// with every knob off is treated as absent (no RNG draws).
struct DiskFaultPlan {
  // Probability that a given read/write request fails with kErrIo.  The
  // error is detected after the request's full service time, as a real
  // media error is (the heads have to get there first).
  double read_error_rate = 0.0;
  double write_error_rate = 0.0;

  // When true, a failed offset stays bad: every later request touching the
  // same offset fails too (grown-defect behaviour).  When false, errors are
  // transient — the next access succeeds.
  bool permanent = false;

  // Probability that a transfer takes `spike_delay` longer than the model
  // says (thermal recalibration, retry at the firmware level).
  double spike_rate = 0.0;
  SimDuration spike_delay = 0;

  // When >= 0, total bytes of successful writes allowed; every write beyond
  // the budget fails with kErrNoSpc (disk-full).
  int64_t write_byte_budget = -1;

  uint64_t seed = 1;

  bool Enabled() const {
    return read_error_rate > 0.0 || write_error_rate > 0.0 || spike_rate > 0.0 ||
           write_byte_budget >= 0;
  }
};

// Fault plan for NetworkLink.
struct LinkFaultPlan {
  // Probability that a transmitted frame never reaches the receiver.  The
  // sender cannot tell: on_sent fires normally (the interface did its job),
  // only the delivery is dropped — UDP loss semantics.
  double loss_rate = 0.0;

  // Probability that a delivered frame's propagation is stretched by a
  // uniform extra delay in [0, jitter_max].
  double jitter_rate = 0.0;
  SimDuration jitter_max = 0;

  uint64_t seed = 1;

  bool Enabled() const {
    return loss_rate > 0.0 || (jitter_rate > 0.0 && jitter_max > 0);
  }
};

}  // namespace ikdp

#endif  // SRC_HW_FAULT_H_
