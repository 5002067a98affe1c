// The mechanism and sizing ablations, as one table of sweeps.
//
// Each sweep names one knob, the disks and copy paths it runs on, and its
// settings as (label, ExperimentConfig mutator) pairs.  Every disk x setting
// x path runs through RunCopyExperiment with the CPU-bound test program
// loaded (8 MB unless the sweep sets the size), so every run verifies the
// copy byte for byte.  Each sweep prints one table — KB/s, the test
// program's slowdown F, and I = F_cp / F_scp where both paths run — and
// every run lands as one row of BENCH_ablate.json (ikdp.bench.v1, bench
// "ablate"), keyed by (sweep, disk, setting, path), in the current
// directory.  EXPERIMENTS.md reads its findings off those rows.
//
// Gates: every run verified, and the declared flat paths (e.g. splice across
// cache sizes) identical at every setting.  Exit status 1 when any fails.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/metrics/experiment.h"

namespace {

using ikdp::DiskKind;
using ikdp::ExperimentConfig;
using ikdp::ExperimentResult;

struct Setting {
  std::string label;
  std::function<void(ExperimentConfig&)> apply;
};

enum Path { kCp = 1, kScp = 2, kBoth = kCp | kScp };

struct Sweep {
  const char* name;
  const char* knob;
  std::vector<DiskKind> disks;
  int paths;
  std::vector<Setting> settings;
  // Paths whose KB/s and F may not move with the setting (a gate).
  int flat = 0;
};

// One setting per value, labelled with `fmt`.
std::vector<Setting> Each(const char* fmt, std::initializer_list<int> values,
                          void (*set)(ExperimentConfig&, int)) {
  std::vector<Setting> out;
  for (int v : values) {
    char label[32];
    std::snprintf(label, sizeof(label), fmt, v);
    out.push_back({label, [set, v](ExperimentConfig& c) { set(c, v); }});
  }
  return out;
}

Setting Watermarks(const char* label, int low, int high, int batch, int inflight) {
  return {label, [=](ExperimentConfig& c) {
            c.splice_options.read_low_watermark = low;
            c.splice_options.write_high_watermark = high;
            c.splice_options.refill_batch = batch;
            c.splice_options.max_inflight_chunks = inflight;
          }};
}

const std::vector<Sweep>& Sweeps() {
  constexpr DiskKind kRam = DiskKind::kRam;
  constexpr DiskKind kRz56 = DiskKind::kRz56;
  constexpr DiskKind kRz58 = DiskKind::kRz58;
  static const std::vector<Sweep> sweeps = {
      // §5.2.4: low 3, high 5, refill 5 keep the source busy without flooding the sink.
      {"watermarks", "watermarks (low,high,batch)", {kRz56, kRz58, kRam}, kScp,
       {Watermarks("lock-step (1,1,1)", 1, 1, 1, 2), Watermarks("shallow (2,2,2)", 2, 2, 2, 4),
        Watermarks("paper (3,5,5)", 3, 5, 5, 8), Watermarks("deep (6,10,10)", 6, 10, 10, 16),
        Watermarks("deeper (12,20,20)", 12, 20, 20, 32)}},
      // §5.2.3: the write buffer shares the read buffer's data area instead of a bcopy.
      {"zero_copy", "write side", {kRam, kRz56, kRz58}, kScp,
       {{"zero-copy", [](ExperimentConfig& c) { c.splice_options.zero_copy = true; }},
        {"bcopy", [](ExperimentConfig& c) { c.splice_options.zero_copy = false; }}}},
      // §5.2.3: write handlers run on softclock ticks, so hz paces the splice.
      {"callout_hz", "hz", {kRam, kRz58}, kScp,
       Each("%d", {64, 128, 256, 512, 1024}, [](ExperimentConfig& c, int v) { c.hz = v; })},
      // §5.2.3: callout deferral decouples the source and destination access periods.
      {"callout_deferral", "deferral", {kRam, kRz56, kRz58}, kScp,
       {{"on", [](ExperimentConfig& c) { c.splice_options.callout_deferral = true; }},
        {"off", [](ExperimentConfig& c) { c.splice_options.callout_deferral = false; }}}},
      // §5.2.1: the special bmap avoids delayed writes of zero-filled destination blocks.
      {"dest_bmap", "destination bmap", {kRam, kRz56, kRz58}, kScp,
       {{"special", [](ExperimentConfig& c) { c.splice_options.stock_destination_bmap = false; }},
        {"stock", [](ExperimentConfig& c) { c.splice_options.stock_destination_bmap = true; }}}},
      // §6.2: "alternative sizes ... statistically indistinguishable from the 8MB case".
      {"filesize", "size", {kRz58}, kBoth,
       Each("%d MB", {1, 2, 4, 8, 16, 24},
            [](ExperimentConfig& c, int v) { c.file_bytes = int64_t{v} << 20; })},
      // §2, §6.1: a 3.2 MB (400-buffer) cache; splice holds ~10 buffers at any size.
      {"cache_size", "bufs", {kRz58}, kBoth,
       Each("%d", {25, 50, 100, 200, 400, 800},
            [](ExperimentConfig& c, int v) { c.cache_bufs = v; }),
       kScp},
      // §6.4 future work (buffering strategies): 4.2BSD's breada reads one block ahead.
      {"readahead", "read-ahead blocks", {kRz58}, kBoth,
       Each("%d", {0, 1, 2, 4, 8}, [](ExperimentConfig& c, int v) { c.read_ahead_blocks = v; }),
       kScp},
      // Beyond the paper: 4.3BSD schedcpu() decays CPU-heavy user priorities.
      {"sched_decay", "user priority", {kRam, kRz56, kRz58}, kBoth,
       {{"flat", [](ExperimentConfig& c) { c.costs.priority_decay = false; }},
        {"decay", [](ExperimentConfig& c) { c.costs.priority_decay = true; }}},
       kBoth},
  };
  return sweeps;
}

const char* PathName(int path) { return path == kCp ? "cp" : "scp"; }

std::string Format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

int main() {
  ikdp::bench::CheckList checks;
  ikdp::bench::BenchArtifact artifact("ablate");
  artifact.config.Int("file_mb", 8).Int("test_op_ms", 1);
  bool all_verified = true;
  std::vector<std::pair<std::string, bool>> flat_gates;
  std::printf("ikdp bench: ablation sweeps (8 MB copy unless swept; test program loaded)\n");

  for (const Sweep& s : Sweeps()) {
    int width = static_cast<int>(std::strlen(s.knob));
    for (const Setting& set : s.settings) {
      width = std::max(width, static_cast<int>(set.label.size()));
    }
    std::string head = Format("\n%s:\n  %-5s | %-*s |", s.name, "disk", width, s.knob);
    std::string rule = "  ------+-" + std::string(width, '-') + "-+";
    for (int path : {kCp, kScp}) {
      if ((s.paths & path) != 0) {
        head += Format(" %8s | %6s |", (std::string(PathName(path)) + " KB/s").c_str(),
                       (std::string("F_") + PathName(path)).c_str());
        rule += "----------+--------+";
      }
    }
    if (s.paths == kBoth) {
      head += Format(" %4s |", "I");
      rule += "------+";
    }
    std::printf("%s\n%s\n", head.c_str(), rule.c_str());

    bool flat = true;
    for (DiskKind disk : s.disks) {
      std::pair<double, double> first[kBoth + 1];  // the first setting's (KB/s, F)
      for (size_t i = 0; i < s.settings.size(); ++i) {
        const Setting& set = s.settings[i];
        std::string line = Format("  %-5s | %-*s |", ikdp::DiskKindName(disk), width,
                                  set.label.c_str());
        double f[kBoth + 1] = {};
        bool row_ok = true;
        for (int path : {kCp, kScp}) {
          if ((s.paths & path) == 0) {
            continue;
          }
          ExperimentConfig cfg;
          cfg.disk = disk;
          set.apply(cfg);
          cfg.use_splice = path == kScp;
          const ExperimentResult r = ikdp::RunCopyExperiment(cfg);
          row_ok = row_ok && r.ok;
          f[path] = r.slowdown;
          line += Format(" %8.0f | %6.2f |", r.throughput_kbs, r.slowdown);
          if (i == 0) {
            first[path] = {r.throughput_kbs, r.slowdown};
          } else if ((s.flat & path) != 0) {
            flat = flat && first[path] == std::pair(r.throughput_kbs, r.slowdown);
          }
          artifact.rows.emplace_back()
              .Str("sweep", s.name)
              .Str("disk", ikdp::DiskKindName(disk))
              .Str("setting", set.label)
              .Str("path", PathName(path))
              .Num("throughput_kbs", r.throughput_kbs, 0)
              .Num("slowdown", r.slowdown, 2)
              .Num("elapsed_s", r.elapsed_s, 6)
              .Num("idle_fraction", r.idle_fraction, 4)
              .Bool("verified", r.ok);
        }
        if (s.paths == kBoth) {
          line += Format(" %4.2f |", f[kCp] / f[kScp]);
        }
        all_verified = all_verified && row_ok;
        std::printf("%s %s\n", line.c_str(), row_ok ? "verified" : "FAILED");
      }
    }
    if (s.flat != 0) {
      const char* paths = s.flat == kBoth ? "cp and scp" : PathName(s.flat);
      flat_gates.emplace_back(Format("%s: %s identical at every setting", s.name, paths), flat);
    }
  }

  std::printf("\nwrote BENCH_ablate.json\n");
  checks.Check(all_verified, "every run verified byte for byte");
  for (const auto& [what, holds] : flat_gates) {
    checks.Check(holds, what.c_str());
  }
  artifact.Write("BENCH_ablate.json", &checks);
  return checks.ok ? 0 : 1;
}
