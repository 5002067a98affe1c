// /dev/null: an infinitely fast sink, useful in tests and ablations to
// isolate source-side behaviour (everything written is accepted immediately
// and consumed in zero device time).

#ifndef SRC_DEV_NULL_DEVICE_H_
#define SRC_DEV_NULL_DEVICE_H_

#include <cstdint>
#include <limits>
#include <utility>

#include "src/dev/char_device.h"
#include "src/sim/simulator.h"

namespace ikdp {

class NullDevice : public CharDevice {
 public:
  explicit NullDevice(Simulator* sim) : sim_(sim) {}

  const char* Name() const override { return "null"; }

  bool SupportsWrite() const override { return true; }

  IKDP_CTX_ANY bool WriteAsync(BufData data, int64_t nbytes, EventFn done) override {
    (void)data;
    bytes_sunk_ += nbytes;
    sim_->After(0, done ? std::move(done) : EventFn([] {}));  // an event either way
    return true;
  }

  int64_t WriteSpace() const override { return std::numeric_limits<int64_t>::max(); }

  int64_t bytes_sunk() const { return bytes_sunk_; }

 private:
  Simulator* sim_;
  int64_t bytes_sunk_ = 0;
};

}  // namespace ikdp

#endif  // SRC_DEV_NULL_DEVICE_H_
