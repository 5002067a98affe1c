// Unit tests for UDP sockets over simulated links: delivery, truncation,
// buffer limits, drops, duplex pairs, and interrupt charging.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "src/hw/costs.h"
#include "src/hw/link.h"
#include "src/kern/cpu.h"
#include "src/net/udp_socket.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

BufData Payload(const std::string& s) {
  return std::make_shared<std::vector<uint8_t>>(s.begin(), s.end());
}

std::string AsString(const BufData& d, int64_t n) {
  return std::string(d->begin(), d->begin() + n);
}

class NetTest : public ::testing::Test {
 protected:
  NetTest()
      : cpu_(&sim_, DecStation5000Costs()),
        wire_(&sim_, EthernetParams()),
        a_(&cpu_),
        b_(&cpu_) {
    a_.ConnectTo(&b_, &wire_);
  }

  Simulator sim_;
  CpuSystem cpu_;
  NetworkLink wire_;
  UdpSocket a_;
  UdpSocket b_;
};

TEST_F(NetTest, DatagramRoundTrip) {
  bool sent = false;
  ASSERT_TRUE(a_.SendAsync(Payload("hello"), 5, [&] { sent = true; }));
  std::string got;
  ASSERT_TRUE(b_.RecvAsync(100, [&](BufData d, int64_t n) { got = AsString(d, n); }));
  sim_.Run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(a_.stats().dgrams_sent, 1u);
  EXPECT_EQ(b_.stats().dgrams_received, 1u);
}

TEST_F(NetTest, RecvBeforeSendCompletes) {
  std::string got;
  ASSERT_TRUE(b_.RecvAsync(100, [&](BufData d, int64_t n) { got = AsString(d, n); }));
  sim_.RunUntil(Milliseconds(1));
  EXPECT_EQ(got, "");
  a_.SendAsync(Payload("later"), 5, nullptr);
  sim_.Run();
  EXPECT_EQ(got, "later");
}

TEST_F(NetTest, DatagramBoundariesPreserved) {
  std::vector<std::string> got;
  a_.SendAsync(Payload("one"), 3, nullptr);
  a_.SendAsync(Payload("two"), 3, nullptr);
  a_.SendAsync(Payload("three"), 5, nullptr);
  std::function<void()> pump = [&] {
    b_.RecvAsync(100, [&](BufData d, int64_t n) {
      got.push_back(AsString(d, n));
      if (got.size() < 3) {
        pump();
      }
    });
  };
  pump();
  sim_.Run();
  EXPECT_EQ(got, (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(NetTest, OversizeDatagramTruncatesOnRecv) {
  a_.SendAsync(Payload("abcdefghij"), 10, nullptr);
  std::string got;
  int64_t got_n = -1;
  b_.RecvAsync(4, [&](BufData d, int64_t n) {
    got_n = n;
    got = AsString(d, n);
  });
  sim_.Run();
  EXPECT_EQ(got_n, 4);
  EXPECT_EQ(got, "abcd");
}

TEST_F(NetTest, SendBufferLimitsInflight) {
  UdpSocket tight(&cpu_, /*sndbuf_bytes=*/10000, /*rcvbuf_bytes=*/48 * 1024);
  tight.ConnectTo(&b_, &wire_);
  auto big = MakeBufData();
  EXPECT_TRUE(tight.SendAsync(big, 8000, nullptr));
  EXPECT_FALSE(tight.SendAsync(big, 8000, nullptr));  // 16000 > 10000
  EXPECT_EQ(tight.SendSpace(), 2000);
  sim_.Run();  // drains the wire
  EXPECT_EQ(tight.SendSpace(), 10000);
  EXPECT_TRUE(tight.SendAsync(big, 8000, nullptr));
  sim_.Run();
}

TEST_F(NetTest, RecvBufferOverflowDropsDatagrams) {
  UdpSocket src(&cpu_);
  UdpSocket dst(&cpu_, 48 * 1024, /*rcvbuf_bytes=*/2500);
  NetworkLink fast(&sim_, LoopbackParams());
  src.ConnectTo(&dst, &fast);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(src.SendAsync(Payload(std::string(1000, 'x')), 1000, nullptr));
  }
  sim_.Run();  // nobody receives
  EXPECT_EQ(dst.stats().dgrams_received, 2u);  // 2 * 1000 <= 2500
  EXPECT_EQ(dst.stats().dgrams_dropped_rcvbuf, 3u);
  EXPECT_EQ(dst.RecvQueuedBytes(), 2000);
}

TEST_F(NetTest, SendWithoutPeerFails) {
  UdpSocket lonely(&cpu_);
  EXPECT_FALSE(lonely.SendAsync(Payload("x"), 1, nullptr));
}

TEST_F(NetTest, FullDuplexPair) {
  NetworkLink back(&sim_, EthernetParams());
  b_.ConnectTo(&a_, &back);
  std::string at_b;
  std::string at_a;
  a_.SendAsync(Payload("ping"), 4, nullptr);
  b_.RecvAsync(16, [&](BufData d, int64_t n) {
    at_b = AsString(d, n);
    b_.SendAsync(Payload("pong"), 4, nullptr);
  });
  a_.RecvAsync(16, [&](BufData d, int64_t n) { at_a = AsString(d, n); });
  sim_.Run();
  EXPECT_EQ(at_b, "ping");
  EXPECT_EQ(at_a, "pong");
}

TEST_F(NetTest, ArrivalChargesInterruptWork) {
  a_.SendAsync(Payload(std::string(8000, 'z')), 8000, nullptr);
  sim_.Run();
  // Interrupt + protocol + checksum of 8 KB.
  const CostConfig& c = cpu_.costs();
  EXPECT_GE(cpu_.stats().interrupt_work,
            c.interrupt_overhead + c.net_proto_packet + c.ChecksumTime(8000));
}

TEST_F(NetTest, LargeDatagramFragmentsOnWire) {
  const uint64_t frames_before = wire_.stats().frames_sent;
  a_.SendAsync(Payload(std::string(8192, 'q')), 8192, nullptr);
  std::string got;
  b_.RecvAsync(8192, [&](BufData d, int64_t n) { got = AsString(d, n); });
  sim_.Run();
  // One logical datagram on the link...
  EXPECT_EQ(wire_.stats().frames_sent, frames_before + 1);
  EXPECT_EQ(got.size(), 8192u);
  // ...but its wire time covers 6 fragment overheads: > raw payload time.
  EXPECT_GT(wire_.stats().busy_time, TransferTime(8192, wire_.params().bandwidth_bps));
}

TEST_F(NetTest, ReceiverCopyIsStable) {
  // The sender rewrites its buffer right after transmission, through
  // MakeWritable as every writer must; the receiver still sees the
  // original bytes.
  BufData buf = Payload("original!!");
  a_.SendAsync(buf, 10, [&] { std::ranges::fill(MakeWritable(buf), 'X'); });
  std::string got;
  b_.RecvAsync(10, [&](BufData d, int64_t n) { got = AsString(d, n); });
  sim_.Run();
  EXPECT_EQ(got, "original!!");
  EXPECT_EQ(AsString(buf, 10), "XXXXXXXXXX");
}

TEST_F(NetTest, FullPayloadArrivesAsTheSendersDataArea) {
  // No wire copy: the receiver gets the very area the sender passed.
  const BufData block = MakeBufData();
  ASSERT_TRUE(a_.SendAsync(block, kBlockSize, nullptr));
  BufData got;
  b_.RecvAsync(kBlockSize, [&](BufData d, int64_t) { got = std::move(d); });
  sim_.Run();
  EXPECT_EQ(got.get(), block.get());
}

TEST_F(NetTest, NullPayloadZeroLengthDatagramIsLegal) {
  // An end-of-stream marker needs no buffer at all.
  ASSERT_TRUE(a_.SendAsync(nullptr, 0, nullptr));
  BufData got;
  int64_t n = -1;
  b_.RecvAsync(100, [&](BufData d, int64_t m) {
    got = std::move(d);
    n = m;
  });
  sim_.Run();
  EXPECT_EQ(n, 0);
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->empty());
  EXPECT_EQ(b_.stats().dgrams_received, 1u);
}

TEST_F(NetTest, ShortPayloadIsZeroPaddedOnTheWire) {
  ASSERT_TRUE(a_.SendAsync(Payload("abc"), 6, nullptr));
  std::string got;
  b_.RecvAsync(100, [&](BufData d, int64_t m) { got = AsString(d, m); });
  sim_.Run();
  EXPECT_EQ(got, std::string("abc\0\0\0", 6));
}

TEST(NetPoolTest, ReceivedPayloadOutlivesTheSimulator) {
  BufData kept;
  {
    Simulator sim;
    CpuSystem cpu(&sim, DecStation5000Costs());
    NetworkLink wire(&sim, EthernetParams());
    UdpSocket a(&cpu);
    UdpSocket b(&cpu);
    a.ConnectTo(&b, &wire);
    ASSERT_TRUE(a.SendAsync(Payload("survivor"), 8, nullptr));
    ASSERT_TRUE(a.SendAsync(Payload("queued"), 6, nullptr));  // never received
    b.RecvAsync(100, [&](BufData d, int64_t) { kept = std::move(d); });
    sim.Run();
  }
  // The run is gone; the buffer is still valid, and dropping it frees it
  // (the sanitizer build checks both).
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(AsString(kept, 8), "survivor");
  kept.reset();
}

TEST_F(NetTest, ThroughputBoundedByWire) {
  // Pump 400 KB through the 10 Mbit/s link with an 8 KB window of one.
  constexpr int kDgrams = 50;
  constexpr int64_t kDgram = 8192;
  int sent = 0;
  std::function<void()> pump = [&] {
    if (++sent <= kDgrams) {
      ASSERT_TRUE(a_.SendAsync(Payload(std::string(kDgram, 'p')), kDgram, pump));
    }
  };
  pump();
  int64_t received = 0;
  std::function<void()> drain = [&] {
    b_.RecvAsync(kDgram, [&](BufData, int64_t n) {
      received += n;
      drain();
    });
  };
  drain();
  sim_.Run();
  EXPECT_EQ(received, kDgrams * kDgram);
  const double rate = static_cast<double>(received) / ToSeconds(sim_.Now());
  EXPECT_GT(rate, 1.0e6);
  EXPECT_LT(rate, 1.25e6);
}


TEST_F(NetTest, ZeroLengthDatagramCarriesEndOfStream) {
  // The repository-wide convention: a zero-length datagram marks the end of
  // a stream (legal UDP).  It must traverse the wire and deliver n == 0.
  ASSERT_TRUE(a_.SendAsync(MakeBufData(), 0, nullptr));
  int64_t got = -1;
  b_.RecvAsync(100, [&](BufData, int64_t n) { got = n; });
  sim_.Run();
  EXPECT_EQ(got, 0);
  EXPECT_EQ(b_.stats().dgrams_received, 1u);
}

TEST_F(NetTest, SendSpaceRestoredAfterTransmit) {
  const int64_t before = a_.SendSpace();
  a_.SendAsync(Payload(std::string(4000, 'x')), 4000, nullptr);
  EXPECT_EQ(a_.SendSpace(), before - 4000);
  sim_.Run();
  EXPECT_EQ(a_.SendSpace(), before);
}

TEST_F(NetTest, CancelRecvDropsParkedReadButKeepsQueuedData) {
  EXPECT_FALSE(b_.CancelRecv());  // nothing parked
  bool fired = false;
  ASSERT_TRUE(b_.RecvAsync(100, [&](BufData, int64_t) { fired = true; }));
  EXPECT_TRUE(b_.CancelRecv());
  a_.SendAsync(Payload("kept"), 4, nullptr);
  sim_.Run();
  EXPECT_FALSE(fired);  // the cancelled read never fires
  EXPECT_EQ(b_.RecvQueuedBytes(), 4);  // the datagram stays for a future reader
  std::string got;
  b_.RecvAsync(100, [&](BufData d, int64_t n) { got = AsString(d, n); });
  EXPECT_EQ(got, "kept");
}

TEST(NetBackpressureTest, FullInterfaceRefusalChargesNoCpuAtAnySpeed) {
  // Property (regression for the splice low-water refill): when the
  // interface queue is full, SendAsync must refuse BEFORE paying the UDP
  // output-path charge — a sink retrying off the softclock backpressures at
  // zero CPU cost instead of busy-waiting in disguise.  Holds at every link
  // speed: acceptance is bounded by queue slots, not bandwidth.
  for (const double bps : {1e6 / 8, 10e6 / 8, 100e6 / 8}) {
    Simulator sim;
    CpuSystem cpu(&sim, DecStation5000Costs());
    LinkParams lp = EthernetParams();
    lp.bandwidth_bps = bps;
    lp.tx_queue_frames = 2;
    NetworkLink wire(&sim, lp);
    UdpSocket src(&cpu);
    UdpSocket dst(&cpu);
    src.ConnectTo(&dst, &wire);
    constexpr int kAttempts = 20;
    constexpr int64_t kDgram = 1000;
    int accepted = 0;
    const SimDuration before = cpu.stats().interrupt_work;
    cpu.RunInterrupt(0, [&] {
      for (int i = 0; i < kAttempts; ++i) {
        if (src.SendAsync(Payload(std::string(kDgram, 'x')), kDgram, nullptr)) {
          ++accepted;
        }
      }
    });
    const SimDuration charged = cpu.stats().interrupt_work - before;
    // One frame in flight + two queued, independent of bandwidth (no sim
    // time passes inside the burst).
    EXPECT_EQ(accepted, 3) << "bps=" << bps;
    EXPECT_EQ(src.stats().dgrams_dropped_wire,
              static_cast<uint64_t>(kAttempts - accepted))
        << "bps=" << bps;
    // Every accepted send paid the protocol charge; every refusal paid zero.
    EXPECT_EQ(charged, accepted * cpu.costs().UdpPacketTime(kDgram)) << "bps=" << bps;
    // Backpressure is transient: once the wire drains, sends flow again.
    sim.Run();
    EXPECT_TRUE(wire.HasTxRoom());
    EXPECT_TRUE(src.SendAsync(Payload(std::string(kDgram, 'y')), kDgram, nullptr));
    sim.Run();
    EXPECT_EQ(dst.stats().dgrams_received, 4u) << "bps=" << bps;
  }
}

TEST_F(NetTest, ChecksumCostScalesWithSize) {
  const CostConfig c = DecStation5000Costs();
  EXPECT_GT(c.UdpPacketTime(8192), c.UdpPacketTime(100));
  EXPECT_EQ(c.UdpPacketTime(0), c.net_proto_packet);
}

// The kUdpSend serials of one traced two-datagram send in a fresh run.
std::vector<int64_t> UdpSendSerialsOfOneRun() {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  TraceLog trace;
  cpu.set_trace(&trace);
  NetworkLink wire(&sim, EthernetParams());
  UdpSocket a(&cpu);
  UdpSocket b(&cpu);
  a.ConnectTo(&b, &wire);
  EXPECT_TRUE(a.SendAsync(Payload("one"), 3, nullptr));
  EXPECT_TRUE(a.SendAsync(Payload("two"), 3, nullptr));
  sim.Run();
  std::vector<int64_t> serials;
  for (const TraceRecord& r : trace.Snapshot()) {
    if (r.kind == TraceKind::kUdpSend) {
      serials.push_back(r.a);
    }
  }
  return serials;
}

TEST(NetSerialTest, DatagramSerialsRestartWithEachRun) {
  const std::vector<int64_t> first = UdpSendSerialsOfOneRun();
  const std::vector<int64_t> second = UdpSendSerialsOfOneRun();
  EXPECT_EQ(first, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(second, first);
}

}  // namespace
}  // namespace ikdp
