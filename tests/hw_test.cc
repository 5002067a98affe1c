// Unit tests for the hardware timing models: DiskModel, NetworkLink, costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/hw/costs.h"
#include "src/hw/disk.h"
#include "src/hw/link.h"
#include "src/sim/simulator.h"

namespace ikdp {
namespace {

constexpr int64_t kBlock = 8192;

TEST(CostsTest, CopyTimesScaleLinearly) {
  const CostConfig c = DecStation5000Costs();
  EXPECT_EQ(c.BcopyTime(0), 0);
  EXPECT_NEAR(static_cast<double>(c.BcopyTime(2 * kBlock)),
              2.0 * static_cast<double>(c.BcopyTime(kBlock)), 2.0);
  // Kernel block copy: 8 KB at 20 MB/s (cache-warm) is ~410 us.
  EXPECT_GT(c.BcopyTime(kBlock), Microseconds(350));
  EXPECT_LT(c.BcopyTime(kBlock), Microseconds(500));
  // User copy: 8 KB at 6.7 MB/s (uncached) is ~1.2 ms.
  EXPECT_GT(c.CopyioTime(kBlock), Microseconds(1000));
  EXPECT_LT(c.CopyioTime(kBlock), Microseconds(1400));
}

class DiskTest : public ::testing::Test {
 protected:
  SimDuration TimeOneRequest(DiskModel& disk, int64_t offset, int64_t nbytes, bool is_read) {
    const SimTime start = sim_.Now();
    SimTime end = -1;
    disk.Submit(DiskRequest{offset, nbytes, is_read, [&](bool) { end = sim_.Now(); }});
    sim_.Run();
    EXPECT_GE(end, 0) << "request never completed";
    return end - start;
  }

  Simulator sim_;
};

TEST_F(DiskTest, FirstReadPaysSeekRotationTransfer) {
  DiskModel disk(&sim_, Rz56Params());
  const DiskParams& p = disk.params();
  const SimDuration t = TimeOneRequest(disk, 100 * kBlock, kBlock, /*is_read=*/true);
  // First access from cylinder 0 to a nearby cylinder: overhead + small seek
  // + avg rotation + media transfer.
  const SimDuration media = TransferTime(kBlock, p.media_rate_bps);
  EXPECT_GT(t, p.controller_overhead + p.avg_rotational_latency + media);
  EXPECT_LT(t, p.controller_overhead + p.max_seek + p.avg_rotational_latency + media +
                   Milliseconds(1));
}

TEST_F(DiskTest, SequentialReadsHitReadAheadCache) {
  DiskModel disk(&sim_, Rz56Params());
  const SimDuration t0 = TimeOneRequest(disk, 0, kBlock, true);
  // Give the drive time to prefetch the next blocks into its cache.
  sim_.RunUntil(sim_.Now() + Milliseconds(50));
  const SimDuration t1 = TimeOneRequest(disk, kBlock, kBlock, true);
  // The second read is served from the cache segment at bus rate: no seek,
  // no rotation, no media transfer.
  EXPECT_LT(t1, t0 / 2);
  EXPECT_EQ(t1, disk.params().controller_overhead +
                    TransferTime(kBlock, disk.params().bus_rate_bps));
  EXPECT_EQ(disk.stats().read_cache_hits, 1u);
}

TEST_F(DiskTest, CacheHitWaitsForPrefetchFrontier) {
  DiskModel disk(&sim_, Rz56Params());
  const DiskParams& p = disk.params();
  TimeOneRequest(disk, 0, kBlock, true);
  // Immediately read the last block of the 64 KB segment: the prefetch
  // frontier (filling at media rate) has not reached it yet, so the request
  // waits roughly (56 KB - already_filled) / media_rate.
  const SimDuration t = TimeOneRequest(disk, 7 * kBlock, kBlock, true);
  const SimDuration full_fill = TransferTime(7 * kBlock, p.media_rate_bps);
  EXPECT_LT(t, full_fill + TransferTime(kBlock, p.bus_rate_bps) + p.controller_overhead +
                   Milliseconds(1));
  EXPECT_GT(t, TransferTime(kBlock, p.bus_rate_bps));
}

TEST_F(DiskTest, SequentialMediaAccessSkipsRotationalLatency) {
  DiskParams p = Rz56Params();
  p.cache_bytes = 0;  // force every read to the media
  DiskModel disk(&sim_, p);
  TimeOneRequest(disk, 0, kBlock, true);
  const SimDuration t1 = TimeOneRequest(disk, kBlock, kBlock, true);
  // Same cylinder, physically sequential: overhead + transfer only.
  EXPECT_EQ(t1, p.controller_overhead + TransferTime(kBlock, p.media_rate_bps));
}

TEST_F(DiskTest, NonSequentialWritePaysRotation) {
  DiskModel disk(&sim_, Rz56Params());
  const DiskParams& p = disk.params();
  TimeOneRequest(disk, 0, kBlock, false);
  const SimDuration t = TimeOneRequest(disk, 10 * kBlock, kBlock, false);
  EXPECT_GE(t, p.controller_overhead + p.avg_rotational_latency +
                   TransferTime(kBlock, p.media_rate_bps));
}

TEST_F(DiskTest, WriteInvalidatesOverlappingSegment) {
  DiskModel disk(&sim_, Rz56Params());
  TimeOneRequest(disk, 0, kBlock, true);         // creates segment [8K, 72K)
  TimeOneRequest(disk, 2 * kBlock, kBlock, false);  // overlaps the segment
  const uint64_t hits_before = disk.stats().read_cache_hits;
  TimeOneRequest(disk, kBlock, kBlock, true);
  EXPECT_EQ(disk.stats().read_cache_hits, hits_before);  // miss: segment gone
}

TEST_F(DiskTest, RequestsServiceFifo) {
  DiskModel disk(&sim_, Rz56Params());
  std::vector<int> order;
  disk.Submit(DiskRequest{0, kBlock, true, [&](bool) { order.push_back(0); }});
  disk.Submit(DiskRequest{50 * kBlock, kBlock, true, [&](bool) { order.push_back(1); }});
  disk.Submit(DiskRequest{kBlock, kBlock, true, [&](bool) { order.push_back(2); }});
  EXPECT_EQ(disk.QueueDepth(), 3u);
  sim_.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(disk.Idle());
  EXPECT_EQ(disk.stats().max_queue_depth, 3u);
}

TEST_F(DiskTest, StatsAccumulate) {
  DiskModel disk(&sim_, Rz58Params());
  TimeOneRequest(disk, 0, kBlock, true);
  TimeOneRequest(disk, kBlock, kBlock, true);
  TimeOneRequest(disk, 0, kBlock, false);
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().bytes_read, 2 * kBlock);
  EXPECT_EQ(disk.stats().bytes_written, kBlock);
  EXPECT_GT(disk.stats().busy_time, 0);
}

TEST_F(DiskTest, Rz58SegmentedCacheTracksMultipleStreams) {
  DiskModel disk(&sim_, Rz58Params());
  // Interleave two sequential streams far apart; both should enjoy read-ahead
  // hits because the RZ58 keeps 4 independent segments.
  const int64_t base_a = 0;
  const int64_t base_b = 500ll * 1000 * 1000;
  TimeOneRequest(disk, base_a, kBlock, true);
  TimeOneRequest(disk, base_b, kBlock, true);
  TimeOneRequest(disk, base_a + kBlock, kBlock, true);
  TimeOneRequest(disk, base_b + kBlock, kBlock, true);
  EXPECT_EQ(disk.stats().read_cache_hits, 2u);
}

TEST_F(DiskTest, Rz56SingleSegmentThrashesOnTwoStreams) {
  DiskModel disk(&sim_, Rz56Params());
  const int64_t base_a = 0;
  const int64_t base_b = 300ll * 1000 * 1000;
  TimeOneRequest(disk, base_a, kBlock, true);
  TimeOneRequest(disk, base_b, kBlock, true);  // evicts stream A's segment
  TimeOneRequest(disk, base_a + kBlock, kBlock, true);
  EXPECT_EQ(disk.stats().read_cache_hits, 0u);
}

TEST_F(DiskTest, SustainedSequentialReadApproachesMediaRate) {
  DiskModel disk(&sim_, Rz56Params());
  constexpr int kBlocks = 256;  // 2 MB
  int done = 0;
  const SimTime start = sim_.Now();
  for (int i = 0; i < kBlocks; ++i) {
    disk.Submit(DiskRequest{i * kBlock, kBlock, true, [&](bool) { ++done; }});
  }
  sim_.Run();
  EXPECT_EQ(done, kBlocks);
  const double secs = ToSeconds(sim_.Now() - start);
  const double rate = kBlocks * kBlock / secs;
  // Sequential streaming should land within a factor ~[0.55, 1.0] of the
  // media rate (controller overhead and bus transfers cost something).
  EXPECT_GT(rate, 0.55 * disk.params().media_rate_bps);
  EXPECT_LT(rate, 1.0 * disk.params().media_rate_bps);
}


TEST_F(DiskTest, SeekTimeMonotoneInDistance) {
  // Property: longer seeks never take less time.  Probed by timing cold
  // random reads at increasing distances from cylinder 0.
  DiskParams p = Rz56Params();
  p.cache_bytes = 0;  // no read-ahead interference
  SimDuration prev = 0;
  const int64_t cyl_bytes = p.bytes_per_cylinder;
  for (int64_t cyls : {1, 10, 100, 400, 800}) {
    DiskModel disk(&sim_, p);
    const int64_t offset = (cyls * cyl_bytes / kBlock) * kBlock;
    const SimDuration t = TimeOneRequest(disk, offset, kBlock, true);
    EXPECT_GE(t, prev) << "seek of " << cyls << " cylinders";
    prev = t;
  }
}

TEST_F(DiskTest, PrefetchFrontierNeverExceedsSegment) {
  DiskModel disk(&sim_, Rz56Params());
  TimeOneRequest(disk, 0, kBlock, true);  // starts a 64 KB segment at 8 KB
  // Long after the segment has fully filled, a read at its far edge is a
  // pure bus-rate hit; a read just beyond it is a miss.
  sim_.RunUntil(sim_.Now() + Seconds(1));
  const SimDuration hit = TimeOneRequest(disk, 8 * kBlock, kBlock, true);
  EXPECT_EQ(hit, disk.params().controller_overhead +
                     TransferTime(kBlock, disk.params().bus_rate_bps));
}

TEST(LinkTest, FrameTransmissionTime) {
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  SimTime delivered = -1;
  link.Send(1466, [&](int64_t bytes) {
    EXPECT_EQ(bytes, 1466);
    delivered = sim.Now();
  });
  sim.Run();
  const LinkParams& p = link.params();
  EXPECT_EQ(delivered, TransferTime(1466 + p.per_frame_overhead_bytes, p.bandwidth_bps) +
                           p.propagation_delay);
}

TEST(LinkTest, FramesSerializeOnTheWire) {
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  std::vector<SimTime> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.Send(1000, [&](int64_t) { arrivals.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 3u);
  const SimDuration tx =
      TransferTime(1000 + link.params().per_frame_overhead_bytes, link.params().bandwidth_bps);
  EXPECT_EQ(arrivals[1] - arrivals[0], tx);
  EXPECT_EQ(arrivals[2] - arrivals[1], tx);
}

TEST(LinkTest, QueueOverflowDropsFrames) {
  Simulator sim;
  LinkParams p = EthernetParams();
  p.tx_queue_frames = 2;
  NetworkLink link(&sim, p);
  int delivered = 0;
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.Send(1000, [&](int64_t) { ++delivered; })) {
      ++accepted;
    }
  }
  sim.Run();
  // One in flight + two queued.
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().frames_dropped, 7u);
}

// --- fault plans (src/hw/fault.h) ---

TEST_F(DiskTest, FaultPlanInjectsReadErrorsDeterministically) {
  DiskFaultPlan plan;
  plan.read_error_rate = 0.3;
  plan.seed = 7;
  auto run = [&](std::vector<bool>* outcomes) {
    Simulator sim;
    DiskModel disk(&sim, Rz56Params());
    disk.SetFaultPlan(plan);
    for (int i = 0; i < 50; ++i) {
      disk.Submit(DiskRequest{i * kBlock, kBlock, true,
                              [&, i](bool ok) { outcomes->push_back(ok); }});
    }
    sim.Run();
    return disk.stats().errors;
  };
  std::vector<bool> a;
  std::vector<bool> b;
  const uint64_t errs_a = run(&a);
  const uint64_t errs_b = run(&b);
  ASSERT_EQ(a.size(), 50u);
  EXPECT_EQ(a, b);  // same seed, same request sequence => same outcomes
  EXPECT_EQ(errs_a, errs_b);
  EXPECT_GT(errs_a, 0u);
  EXPECT_LT(errs_a, 50u);
}

TEST_F(DiskTest, FaultPlanFailureReportsErrnoAfterFullServiceTime) {
  DiskFaultPlan plan;
  plan.read_error_rate = 1.0;  // every read fails
  DiskModel disk(&sim_, Rz56Params());
  disk.SetFaultPlan(plan);
  bool ok = true;
  SimTime done_at = -1;
  const SimTime start = sim_.Now();
  disk.Submit(DiskRequest{100 * kBlock, kBlock, true, [&](bool k) {
    ok = k;
    done_at = sim_.Now();
  }});
  sim_.Run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(disk.last_error(), kErrIo);
  // The error is detected at the media, not at submission: the request still
  // pays seek + rotation + transfer.
  EXPECT_GT(done_at - start, disk.params().controller_overhead);
  EXPECT_EQ(disk.stats().errors, 1u);
}

TEST_F(DiskTest, TransientErrorsClearPermanentOnesStick) {
  DiskFaultPlan plan;
  plan.read_error_rate = 1.0;
  plan.permanent = true;
  DiskModel disk(&sim_, Rz56Params());
  disk.SetFaultPlan(plan);
  int fails = 0;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(DiskRequest{0, kBlock, true, [&](bool ok) { fails += ok ? 0 : 1; }});
    sim_.Run();
  }
  EXPECT_EQ(fails, 3);  // grown defect: the offset stays bad

  // Transient plan on a fresh disk: rate drives each draw independently, so
  // a rate-0 plan after one forced failure must succeed.
  DiskFaultPlan transient;
  transient.read_error_rate = 1.0;
  DiskModel disk2(&sim_, Rz56Params());
  disk2.SetFaultPlan(transient);
  bool first = true;
  disk2.Submit(DiskRequest{0, kBlock, true, [&](bool ok) { first = ok; }});
  sim_.Run();
  EXPECT_FALSE(first);
  transient.read_error_rate = 0.0;
  transient.write_byte_budget = 1 << 30;  // keep the plan Enabled()
  disk2.SetFaultPlan(transient);
  bool second = false;
  disk2.Submit(DiskRequest{0, kBlock, true, [&](bool ok) { second = ok; }});
  sim_.Run();
  EXPECT_TRUE(second);  // transient: the same offset reads fine now
}

TEST_F(DiskTest, WriteByteBudgetFailsWithEnospc) {
  DiskFaultPlan plan;
  plan.write_byte_budget = 2 * kBlock;
  DiskModel disk(&sim_, Rz56Params());
  disk.SetFaultPlan(plan);
  std::vector<bool> outcomes;
  std::vector<int> errnos;
  for (int i = 0; i < 4; ++i) {
    disk.Submit(DiskRequest{i * kBlock, kBlock, false, [&](bool ok) {
      outcomes.push_back(ok);
      errnos.push_back(disk.last_error());
    }});
    sim_.Run();
  }
  EXPECT_EQ(outcomes, (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(errnos[2], kErrNoSpc);
  EXPECT_EQ(errnos[3], kErrNoSpc);
  EXPECT_EQ(disk.stats().enospc_errors, 2u);
  // Reads are not bounded by the budget.
  bool read_ok = false;
  disk.Submit(DiskRequest{0, kBlock, true, [&](bool ok) { read_ok = ok; }});
  sim_.Run();
  EXPECT_TRUE(read_ok);
}

TEST_F(DiskTest, LatencySpikesStretchServiceTime) {
  DiskParams p = Rz56Params();
  p.cache_bytes = 0;
  DiskFaultPlan plan;
  plan.spike_rate = 1.0;
  plan.spike_delay = Milliseconds(40);
  DiskModel slow(&sim_, p);
  slow.SetFaultPlan(plan);
  const SimDuration spiked = TimeOneRequest(slow, 100 * kBlock, kBlock, true);

  Simulator sim2;
  DiskModel fast(&sim2, p);
  SimTime end = -1;
  fast.Submit(DiskRequest{100 * kBlock, kBlock, true, [&](bool) { end = sim2.Now(); }});
  sim2.Run();
  EXPECT_EQ(spiked, end + Milliseconds(40));
  EXPECT_EQ(slow.stats().latency_spikes, 1u);
  EXPECT_EQ(slow.stats().errors, 0u);  // a spike is slow, not wrong
}

TEST(LinkTest, FaultPlanLossDropsDeliveryButNotSendCompletion) {
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  LinkFaultPlan plan;
  plan.loss_rate = 1.0;
  link.SetFaultPlan(plan);
  int sent = 0;
  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    link.Send(1000, [&](int64_t) { ++delivered; }, [&] { ++sent; });
  }
  sim.Run();
  // The interface can't tell a lost frame from a delivered one: on_sent
  // fires for every frame, but none reach the receiver.
  EXPECT_EQ(sent, 5);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().frames_lost, 5u);
}

TEST(LinkTest, FaultPlanJitterDelaysDeliveryDeterministically) {
  LinkFaultPlan plan;
  plan.jitter_rate = 1.0;
  plan.jitter_max = Milliseconds(5);
  plan.seed = 11;
  auto run = [&]() {
    Simulator sim;
    NetworkLink link(&sim, EthernetParams());
    link.SetFaultPlan(plan);
    std::vector<SimTime> arrivals;
    for (int i = 0; i < 10; ++i) {
      link.Send(1000, [&](int64_t) { arrivals.push_back(sim.Now()); });
    }
    sim.Run();
    return arrivals;
  };
  const std::vector<SimTime> a = run();
  const std::vector<SimTime> b = run();
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);  // same seed => same jitter sequence

  // Every arrival is later than the no-fault schedule and within jitter_max.
  Simulator sim;
  NetworkLink clean(&sim, EthernetParams());
  std::vector<SimTime> base;
  for (int i = 0; i < 10; ++i) {
    clean.Send(1000, [&](int64_t) { base.push_back(sim.Now()); });
  }
  sim.Run();
  ASSERT_EQ(base.size(), 10u);
  uint64_t jittered = 0;
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_GE(a[i], base[i]);
    EXPECT_LE(a[i], base[i] + Milliseconds(5));
    if (a[i] > base[i]) ++jittered;
  }
  EXPECT_GT(jittered, 0u);
}

// Frame `i` of the identity test carries its own payload size.
int64_t IdentityFrameBytes(int i) { return 200 + 37 * static_cast<int64_t>(i); }

// Every frame's own callback fires once with its own size, although jitter
// reorders frames in flight and each wave's frames reuse the arrival slots
// of the wave before it.
TEST(LinkTest, JitteredFramesEachDeliverTheirOwnCallbackOnce) {
  LinkFaultPlan plan;
  plan.jitter_rate = 1.0;
  plan.jitter_max = Milliseconds(5);
  plan.seed = 11;
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  link.SetFaultPlan(plan);
  constexpr int kWaves = 3;
  constexpr int kPerWave = 8;
  std::vector<int> calls(kWaves * kPerWave, 0);
  std::vector<int64_t> bytes(kWaves * kPerWave, -1);
  std::vector<int> arrival_order;
  // A wave is on the wire for under 20 ms, jitter included, so each wave
  // starts once the one before it has fully arrived.
  for (int w = 0; w < kWaves; ++w) {
    sim.At(w * Milliseconds(50), [&, w] {
      for (int i = w * kPerWave; i < (w + 1) * kPerWave; ++i) {
        EXPECT_TRUE(link.Send(IdentityFrameBytes(i), [&, i](int64_t n) {
          ++calls[i];
          bytes[i] = n;
          arrival_order.push_back(i);
        }));
      }
    });
  }
  sim.Run();
  for (int i = 0; i < kWaves * kPerWave; ++i) {
    EXPECT_EQ(calls[i], 1) << "frame " << i;
    EXPECT_EQ(bytes[i], IdentityFrameBytes(i)) << "frame " << i;
  }
  ASSERT_EQ(arrival_order.size(), static_cast<size_t>(kWaves * kPerWave));
  for (int w = 0; w < kWaves; ++w) {
    const auto first = arrival_order.begin() + w * kPerWave;
    EXPECT_FALSE(std::is_sorted(first, first + kPerWave)) << "wave " << w << " not reordered";
  }
}

TEST(LinkTest, NoFaultPlanMeansNoRandomDraws) {
  // Determinism contract: an absent (or all-off) plan leaves timing exactly
  // on the pre-fault path.
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  LinkFaultPlan off;  // every knob zero
  link.SetFaultPlan(off);
  SimTime delivered = -1;
  link.Send(1466, [&](int64_t) { delivered = sim.Now(); });
  sim.Run();
  const LinkParams& p = link.params();
  EXPECT_EQ(delivered, TransferTime(1466 + p.per_frame_overhead_bytes, p.bandwidth_bps) +
                           p.propagation_delay);
  EXPECT_EQ(link.stats().frames_lost, 0u);
  EXPECT_EQ(link.stats().frames_jittered, 0u);
}

TEST(LinkTest, TenMbitEthernetThroughput) {
  Simulator sim;
  NetworkLink link(&sim, EthernetParams());
  constexpr int kFrames = 100;
  constexpr int64_t kPayload = 1466;
  int64_t received = 0;
  std::function<void()> pump = [&] {
    link.Send(kPayload, [&](int64_t b) { received += b; });
  };
  for (int i = 0; i < kFrames; ++i) {
    pump();
  }
  sim.Run();
  const double rate = static_cast<double>(received) / ToSeconds(sim.Now());
  EXPECT_GT(rate, 1.1e6);  // > 1.1 MB/s of payload on a 1.25 MB/s wire
  EXPECT_LT(rate, 1.25e6);
}

}  // namespace
}  // namespace ikdp
