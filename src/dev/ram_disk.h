// RAM disk block-device driver (paper Section 6.1).
//
// "The ram disk driver uses 16MB of statically allocated memory from the
// kernel's BSS region."  Those 16 MB are the simulated capacity, so
// CapacityBlocks() and device-full behaviour are the paper's; on the host,
// like every BlockDevice, the disk keeps only the blocks written so far
// (src/buf/buf.h).  There is no seek, no rotation, and no completion
// interrupt; Strategy() completes the buffer synchronously (via Biodone
// before returning) and reports the transfer's CPU cost as the caller's
// charge.
//
// Reads are zero-copy: the driver can point the buffer at the block's
// location in its core (kernel BSS is directly addressable), so a read
// charges no copy time.  Writes bcopy the buffer's data area into the core
// at the kernel block-copy rate.  This asymmetry is what the paper's RAM
// rows require: the splice data path then performs exactly ONE memory copy
// per block (the destination write), while cp performs three (copyout,
// copyin, destination write).

#ifndef SRC_DEV_RAM_DISK_H_
#define SRC_DEV_RAM_DISK_H_

#include <cstdint>

#include "src/buf/buf.h"
#include "src/kern/cpu.h"

namespace ikdp {

class RamDisk : public BlockDevice {
 public:
  RamDisk(CpuSystem* cpu, int64_t capacity_bytes);

  // BlockDevice:
  IKDP_CTX_ANY SimDuration Strategy(Buf& b) override;
  int64_t CapacityBlocks() const override { return capacity_blocks_; }
  const char* Name() const override { return "RAM"; }

  struct Stats {
    uint64_t reads = 0;
    uint64_t writes = 0;
    SimDuration copy_time = 0;  // CPU charged to callers
  };
  const Stats& stats() const { return stats_; }

 private:
  CpuSystem* cpu_;
  int64_t capacity_blocks_;
  Stats stats_;
};

}  // namespace ikdp

#endif  // SRC_DEV_RAM_DISK_H_
