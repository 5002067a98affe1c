// Direct unit tests of SpliceEngine internals using scripted fake endpoints:
// drain budget per tick, read-retry arming, EOF-marker release, sink-refusal
// requeueing, descriptor stats, and options plumbing.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <map>
#include <vector>

#include "src/hw/costs.h"
#include "src/kern/cpu.h"
#include "src/sim/callout.h"
#include "src/sim/simulator.h"
#include "src/splice/splice_engine.h"

namespace ikdp {
namespace {

// A source delivering `total_chunks` synchronous chunks of `chunk_bytes`,
// optionally refusing the first `refusals` StartRead calls.
// Observations land in test-owned counters: the engine owns (and destroys)
// the endpoints with the descriptor, so tests must not touch them after the
// splice completes.
struct SourceObs {
  int reads = 0;
  int releases = 0;
};

class ScriptedSource : public SpliceSource {
 public:
  ScriptedSource(int64_t total_chunks, int64_t chunk_bytes, int refusals = 0,
                 SourceObs* obs = nullptr)
      : total_chunks_(total_chunks), chunk_bytes_(chunk_bytes), refusals_(refusals), obs_(obs) {}

  int64_t TotalBytes() const override { return total_chunks_ * chunk_bytes_; }
  int64_t ChunkBytes() const override { return chunk_bytes_; }

  bool StartRead(int64_t index, Done done) override {
    if (refusals_ > 0) {
      --refusals_;
      return false;
    }
    if (obs_ != nullptr) {
      ++obs_->reads;
    }
    SpliceChunk c;
    c.index = index;
    c.nbytes = chunk_bytes_;
    c.data = MakeBufData();
    done(std::move(c));  // synchronous completion
    return true;
  }

  void Release(SpliceChunk& chunk) override {
    (void)chunk;
    if (obs_ != nullptr) {
      ++obs_->releases;
    }
  }

 private:
  int64_t total_chunks_;
  int64_t chunk_bytes_;
  int refusals_;
  SourceObs* obs_;
};

// A sink recording write times into test-owned vectors; optionally refuses
// the first `refusals` StartWrite calls; completes synchronously.
struct SinkObs {
  std::vector<SimTime> write_times;
  std::vector<int64_t> indices;
};

class ScriptedSink : public SpliceSink {
 public:
  ScriptedSink(Simulator* sim, SinkObs* obs, int refusals = 0)
      : sim_(sim), obs_(obs), refusals_(refusals) {}

  bool StartWrite(SpliceChunk& chunk, Done done) override {
    if (refusals_ > 0) {
      --refusals_;
      return false;
    }
    if (obs_ != nullptr) {
      obs_->write_times.push_back(sim_->Now());
      obs_->indices.push_back(chunk.index);
    }
    done(true);
    return true;
  }

 private:
  Simulator* sim_;
  SinkObs* obs_;
  int refusals_;
};

// The engine takes a sink list; these splices have one sink.
std::vector<std::unique_ptr<SpliceSink>> OneSink(std::unique_ptr<SpliceSink> sink) {
  std::vector<std::unique_ptr<SpliceSink>> sinks;
  sinks.push_back(std::move(sink));
  return sinks;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : cpu_(&sim_, DecStation5000Costs()), callouts_(&sim_, 256),
                 engine_(&cpu_, &callouts_) {}

  int64_t RunSplice(std::unique_ptr<SpliceSource> src, std::unique_ptr<SpliceSink> sink,
                    SpliceOptions opts) {
    int64_t moved = -2;
    engine_.Start(std::move(src), OneSink(std::move(sink)), opts,
                  [&moved](const SpliceCompletion& c) { moved = c.io_error ? -1 : c.bytes_moved; });
    sim_.Run();
    return moved;
  }

  Simulator sim_;
  CpuSystem cpu_;
  CalloutTable callouts_;
  SpliceEngine engine_;
};

TEST_F(EngineTest, DrainBudgetBoundsChunksPerTick) {
  SinkObs obs;
  auto src = std::make_unique<ScriptedSource>(12, 1000);
  auto sink = std::make_unique<ScriptedSink>(&sim_, &obs);
  SpliceOptions opts;
  opts.max_chunks_per_tick = 3;
  opts.max_inflight_chunks = 64;
  opts.refill_batch = 64;  // everything readable at once
  const int64_t moved = RunSplice(std::move(src), std::move(sink), opts);
  EXPECT_EQ(moved, 12000);
  // Writes happen on tick boundaries, at most 3 per tick.
  const SimDuration tick = callouts_.TickDuration();
  std::map<SimTime, int> per_tick;
  for (SimTime t : obs.write_times) {
    EXPECT_EQ(t % tick, 0);
    ++per_tick[t];
  }
  for (const auto& [t, n] : per_tick) {
    EXPECT_LE(n, 3) << "tick at " << t;
  }
  EXPECT_GE(per_tick.size(), 4u);  // 12 chunks / 3 per tick
}

TEST_F(EngineTest, InflightBoundLimitsSynchronousReadahead) {
  SourceObs obs;
  auto src = std::make_unique<ScriptedSource>(100, 500, 0, &obs);
  auto sink = std::make_unique<ScriptedSink>(&sim_, nullptr);
  SpliceOptions opts;
  opts.max_inflight_chunks = 4;
  opts.refill_batch = 16;
  opts.max_chunks_per_tick = 2;

  // Snapshot how far ahead the source has been read right after Start: the
  // in-flight bound must cap it even though reads complete synchronously.
  engine_.Start(std::move(src), OneSink(std::move(sink)), opts, [](const SpliceCompletion&) {});
  EXPECT_LE(obs.reads, 4);
  sim_.Run();
  EXPECT_EQ(obs.reads, 100);
  EXPECT_EQ(obs.releases, 100);  // every chunk released exactly once
}

TEST_F(EngineTest, ReadRefusalArmsRetryAndRecovers) {
  SourceObs obs;
  auto src = std::make_unique<ScriptedSource>(5, 100, /*refusals=*/3, &obs);
  auto sink = std::make_unique<ScriptedSink>(&sim_, nullptr);
  const int64_t moved = RunSplice(std::move(src), std::move(sink), SpliceOptions{});
  EXPECT_EQ(moved, 500);
  EXPECT_EQ(obs.reads, 5);
}

TEST_F(EngineTest, SinkRefusalRequeuesInOrder) {
  SinkObs obs;
  auto src = std::make_unique<ScriptedSource>(6, 100);
  auto sink = std::make_unique<ScriptedSink>(&sim_, &obs, /*refusals=*/2);
  const int64_t moved = RunSplice(std::move(src), std::move(sink), SpliceOptions{});
  EXPECT_EQ(moved, 600);
  // Order preserved despite the refusals (chunks requeue at the front).
  EXPECT_EQ(obs.indices, (std::vector<int64_t>{0, 1, 2, 3, 4, 5}));
}

TEST_F(EngineTest, EmptySourceCompletesAsynchronously) {
  auto src = std::make_unique<ScriptedSource>(0, 100);
  auto sink = std::make_unique<ScriptedSink>(&sim_, nullptr);
  int64_t moved = -2;
  engine_.Start(std::move(src), OneSink(std::move(sink)), SpliceOptions{},
                [&moved](const SpliceCompletion& c) { moved = c.io_error ? -1 : c.bytes_moved; });
  EXPECT_EQ(moved, -2) << "completion must not fire inside Start()";
  sim_.Run();
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(engine_.active(), 0);
}

TEST_F(EngineTest, StatsCountRetriesAndRefills) {
  auto src = std::make_unique<ScriptedSource>(10, 100, /*refusals=*/2);
  auto sink = std::make_unique<ScriptedSink>(&sim_, nullptr, /*refusals=*/1);
  SpliceDescriptor* d = nullptr;
  SpliceDescriptor::Stats observed;
  d = engine_.Start(std::move(src), OneSink(std::move(sink)), SpliceOptions{},
                    [&](const SpliceCompletion&) { observed = d->stats(); });
  sim_.Run();
  EXPECT_GE(observed.read_retries, 1u);
  EXPECT_GE(observed.write_retries, 1u);
  EXPECT_GT(observed.refills, 0u);
}

TEST_F(EngineTest, CancelMidTransferReleasesAllChunksAndCompletesOnce) {
  SourceObs obs;
  auto src = std::make_unique<ScriptedSource>(64, 1000, 0, &obs);
  auto sink = std::make_unique<ScriptedSink>(&sim_, nullptr);
  SpliceOptions opts;
  opts.max_inflight_chunks = 8;
  opts.refill_batch = 8;
  opts.max_chunks_per_tick = 2;
  int completions = 0;
  int64_t moved = -2;
  SpliceDescriptor* d =
      engine_.Start(std::move(src), OneSink(std::move(sink)), opts, [&](const SpliceCompletion& c) {
        ++completions;
        moved = c.io_error ? -1 : c.bytes_moved;
      });
  // Let a few drain ticks run, then cancel with chunks still in flight.
  sim_.RunUntil(3 * callouts_.TickDuration());
  ASSERT_EQ(completions, 0);
  engine_.Cancel(d);
  sim_.Run();
  EXPECT_EQ(completions, 1) << "on_complete must fire exactly once";
  EXPECT_GE(moved, 0);
  EXPECT_LT(moved, 64 * 1000);
  EXPECT_EQ(obs.releases, obs.reads) << "every read chunk must be released";
  EXPECT_EQ(engine_.active(), 0);
}

// A source whose reads complete from interrupt context after a short delay,
// the way a real DMA device's completion arrives.
class InterruptSource : public SpliceSource {
 public:
  InterruptSource(Simulator* sim, CpuSystem* cpu, int64_t total_chunks, int64_t chunk_bytes)
      : sim_(sim), cpu_(cpu), total_chunks_(total_chunks), chunk_bytes_(chunk_bytes) {}

  int64_t TotalBytes() const override { return total_chunks_ * chunk_bytes_; }
  int64_t ChunkBytes() const override { return chunk_bytes_; }

  bool StartRead(int64_t index, Done done) override {
    sim_->After(Microseconds(5), [this, index, done = std::move(done)]() mutable {
      cpu_->RunInterrupt(0, [this, index, done = std::move(done)] {
        SpliceChunk c;
        c.index = index;
        c.nbytes = chunk_bytes_;
        c.data = MakeBufData();
        done(c);
      });
    });
    return true;
  }

  void Release(SpliceChunk& chunk) override { (void)chunk; }

 private:
  Simulator* sim_;
  CpuSystem* cpu_;
  int64_t total_chunks_;
  int64_t chunk_bytes_;
};

TEST(SpliceChargeTest, SyncCompletionChargeIsNotDropped) {
  // ScriptedSource completes its reads synchronously inside Start(), in
  // process context.  The read-handler cost of those completions must land
  // in the pending sync charge for the syscall layer to bill, not vanish.
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  CalloutTable callouts(&sim, 256);
  SpliceEngine engine(&cpu, &callouts);

  SourceObs obs;
  SpliceOptions opts;
  opts.max_inflight_chunks = 4;  // four reads complete inside Start()
  opts.refill_batch = 4;
  engine.Start(std::make_unique<ScriptedSource>(8, 1000, 0, &obs),
               OneSink(std::make_unique<ScriptedSink>(&sim, nullptr)), opts,
               [](const SpliceCompletion&) {});
  const int sync_reads = obs.reads;
  EXPECT_GE(sync_reads, 1);
  const SimDuration charge = engine.TakeSyncCharge();
  EXPECT_EQ(charge, sync_reads * cpu.costs().splice_read_handler);
  EXPECT_EQ(engine.TakeSyncCharge(), 0) << "charge must drain exactly once";

  sim.Run();
  // Post-setup handler work runs from softclock/interrupt context and is
  // billed to interrupt accounting, never to the pending sync charge.
  EXPECT_EQ(engine.TakeSyncCharge(), 0);
}

TEST(SpliceChargeTest, SyncAndAsyncCompletionChargeTheSameTotal) {
  // The same transfer must account the same total handler CPU whether read
  // completions arrive synchronously in process context (charged via
  // TakeSyncCharge) or from interrupt context (charged to the interrupt).
  // Zero the softclock overhead so interrupt_work isolates handler charges;
  // the two modes may arm a different number of drain ticks.
  CostConfig costs = DecStation5000Costs();
  costs.softclock_per_callout = 0;
  const int64_t kChunks = 8;
  const int64_t kChunkBytes = 1000;

  SimDuration sync_total = 0;
  {
    Simulator sim;
    CpuSystem cpu(&sim, costs);
    CalloutTable callouts(&sim, 256);
    SpliceEngine engine(&cpu, &callouts);
    engine.Start(std::make_unique<ScriptedSource>(kChunks, kChunkBytes),
                 OneSink(std::make_unique<ScriptedSink>(&sim, nullptr)), SpliceOptions{},
                 [](const SpliceCompletion&) {});
    sync_total += engine.TakeSyncCharge();
    EXPECT_GT(sync_total, 0);  // the regression: this used to be dropped
    sim.Run();
    sync_total += engine.TakeSyncCharge() + cpu.stats().interrupt_work;
  }

  SimDuration async_total = 0;
  {
    Simulator sim;
    CpuSystem cpu(&sim, costs);
    CalloutTable callouts(&sim, 256);
    SpliceEngine engine(&cpu, &callouts);
    engine.Start(std::make_unique<InterruptSource>(&sim, &cpu, kChunks, kChunkBytes),
                 OneSink(std::make_unique<ScriptedSink>(&sim, nullptr)), SpliceOptions{},
                 [](const SpliceCompletion&) {});
    EXPECT_EQ(engine.TakeSyncCharge(), 0);  // nothing completed in Start()
    sim.Run();
    EXPECT_EQ(engine.TakeSyncCharge(), 0);  // all handlers ran at interrupt
    async_total = cpu.stats().interrupt_work;
  }

  EXPECT_EQ(sync_total, async_total);
}

TEST_F(EngineTest, EngineStatsAccumulateAcrossSplices) {
  for (int i = 0; i < 3; ++i) {
    RunSplice(std::make_unique<ScriptedSource>(4, 250),
              std::make_unique<ScriptedSink>(&sim_, nullptr), SpliceOptions{});
  }
  EXPECT_EQ(engine_.stats().splices_started, 3u);
  EXPECT_EQ(engine_.stats().splices_completed, 3u);
  EXPECT_EQ(engine_.stats().total_bytes, 3 * 1000);
  EXPECT_EQ(engine_.active(), 0);
}

// A source that also records when each accepted read was issued.
class TimedSource : public ScriptedSource {
 public:
  TimedSource(Simulator* sim, std::vector<SimTime>* times, int64_t total_chunks, int refusals)
      : ScriptedSource(total_chunks, 1000, refusals), sim_(sim), times_(times) {}

  bool StartRead(int64_t index, Done done) override {
    const SimTime now = sim_->Now();
    const bool ok = ScriptedSource::StartRead(index, std::move(done));
    if (ok) {
      times_->push_back(now);
    }
    return ok;
  }

 private:
  Simulator* sim_;
  std::vector<SimTime>* times_;
};

// What a second splice saw after the first one was torn down.
struct SecondSplice {
  SpliceDescriptor* first = nullptr;
  SpliceDescriptor* second = nullptr;
  std::vector<SimTime> reads;
  SinkObs writes;
  int completions = 0;
  SpliceCompletion done;
  SpliceDescriptor::Stats stats;
};

// The first splice's only reads are refused, which arms a read retry for the
// first tick, and interrupt work keeps the CPU busy across that tick.  The
// first splice is cancelled before the tick (`retry_fired` false: the
// teardown recalls the callout) or after it (true: the callout has fired and
// its body waits in the interrupt queue, where teardown cannot reach it).
// Either way its descriptor slot is released at once, and a second splice,
// whose first read is refused too, takes the slot before the busy spell
// ends.
SecondSplice RunAfterFirstSpliceRetry(bool retry_fired) {
  Simulator sim;
  CpuSystem cpu(&sim, DecStation5000Costs());
  CalloutTable callouts(&sim, 256);
  SpliceEngine engine(&cpu, &callouts);
  const SimDuration tick = callouts.TickDuration();
  SecondSplice out;
  std::vector<SimTime> first_reads;
  out.first = engine.Start(std::make_unique<TimedSource>(&sim, &first_reads, 4, /*refusals=*/100),
                           OneSink(std::make_unique<ScriptedSink>(&sim, nullptr)),
                           SpliceOptions{}, [](const SpliceCompletion&) {});
  sim.At(tick - tick / 4, [&cpu, tick] { cpu.RunInterrupt(tick / 2, [] {}); });
  sim.At(retry_fired ? tick + tick / 8 : tick - tick / 8, [&] { engine.Cancel(out.first); });
  sim.At(tick + tick / 8 + 1, [&] {
    out.second = engine.Start(
        std::make_unique<TimedSource>(&sim, &out.reads, 6, /*refusals=*/1),
        OneSink(std::make_unique<ScriptedSink>(&sim, &out.writes)), SpliceOptions{},
        [&out](const SpliceCompletion& c) {
          ++out.completions;
          out.done = c;
          out.stats = out.second->stats();
        });
  });
  sim.Run();
  EXPECT_TRUE(first_reads.empty());
  EXPECT_EQ(engine.active(), 0);
  return out;
}

// A retry callout that fired for a finished splice must leave the splice
// that reuses its descriptor slot alone: the callout body compares the
// serial it was armed for with the descriptor's.
TEST(EngineStaleRetryTest, FiredRetryOfAFinishedSpliceSkipsItsSlotsNextSplice) {
  const SecondSplice want = RunAfterFirstSpliceRetry(/*retry_fired=*/false);
  const SecondSplice got = RunAfterFirstSpliceRetry(/*retry_fired=*/true);
  for (const SecondSplice* s : {&want, &got}) {
    EXPECT_EQ(s->second, s->first) << "the second splice must reuse the first one's slot";
    EXPECT_EQ(s->completions, 1);
    EXPECT_EQ(s->done.serial, 2u);
    EXPECT_EQ(s->done.bytes_moved, 6000);
    EXPECT_EQ(s->reads.size(), 6u);
  }
  // The second splice's own retry reads at the tick after it started; a
  // stale body taken for its own would have read everything early.
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes.write_times, want.writes.write_times);
  EXPECT_EQ(got.writes.indices, want.writes.indices);
  EXPECT_EQ(got.done.started_at, want.done.started_at);
  EXPECT_EQ(got.done.finished_at, want.done.finished_at);
  EXPECT_EQ(got.stats.read_retries, want.stats.read_retries);
  EXPECT_EQ(got.stats.write_retries, want.stats.write_retries);
  EXPECT_EQ(got.stats.refills, want.stats.refills);
  EXPECT_EQ(got.stats.max_pending_reads, want.stats.max_pending_reads);
  EXPECT_EQ(got.stats.max_pending_writes, want.stats.max_pending_writes);
}

}  // namespace
}  // namespace ikdp
