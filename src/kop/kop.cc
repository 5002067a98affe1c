#include "src/kop/kop.h"

#include <cstdio>
#include <vector>

namespace ikdp {

namespace {

std::string Detail(const char* fmt, long long a, long long b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

// Resolves a stage's declared window against a chunk of `nbytes`.  Returns
// false when any byte of the window falls outside the chunk.  A filter or
// route only examines data[off], but the declared window is still what the
// verifier (and the runtime re-check) holds the stage to.
bool ResolveWindow(const KopStage& s, int64_t nbytes, int64_t* off, int64_t* len) {
  if (s.off < 0 || s.off > nbytes) return false;
  int64_t l = s.len < 0 ? nbytes - s.off : s.len;
  if (l < 0 || s.off + l > nbytes) return false;
  // Stages that dereference data[off] need at least one byte in the window.
  if ((s.kind == KopStageKind::kFilter || s.kind == KopStageKind::kRoute) && l < 1)
    return false;
  *off = s.off;
  *len = l;
  return true;
}

}  // namespace

std::vector<KopFinding> KopVerify(const KopProgram& prog, int64_t chunk_bytes) {
  std::vector<KopFinding> findings;
  auto flag = [&](const char* rule, int stage, std::string detail) {
    findings.push_back(KopFinding{rule, stage, std::move(detail)});
  };

  if (prog.stages.empty()) {
    flag("empty-program", -1, "program has no stages");
    return findings;
  }
  if (static_cast<int>(prog.stages.size()) > kKopMaxStages) {
    flag("too-many-stages", -1,
         Detail("%lld stages exceeds the limit of %lld", (long long)prog.stages.size(),
                kKopMaxStages));
  }

  for (size_t i = 0; i < prog.stages.size(); ++i) {
    const KopStage& s = prog.stages[i];
    const int si = static_cast<int>(i);

    // Rule: unbounded-loop.  The only iteration construct is the bounded
    // per-stage repeat count; anything outside [1, kKopMaxRepeat] is either a
    // zero-trip no-op (a program bug) or an attempt at unbounded work in
    // interrupt context.
    if (s.repeat < 1 || s.repeat > kKopMaxRepeat) {
      flag("unbounded-loop", si,
           Detail("repeat=%lld outside [1, %lld]", s.repeat, kKopMaxRepeat));
    }

    // Rule: out-of-chunk.  The declared window must fit the declared chunk
    // size.  (The interpreter re-checks against the ACTUAL chunk length at
    // runtime — short last chunks — and rejects instead of reading past.)
    int64_t off = 0, len = 0;
    if (!ResolveWindow(s, chunk_bytes, &off, &len)) {
      flag("out-of-chunk", si,
           Detail("window [off=%lld, len=%lld) exceeds chunk", s.off, s.len));
    }

    // Rules: route-not-last / sink-mismatch.  Routing decides which sink the
    // chunk continues to, so it only makes sense as the final stage, exactly
    // once, with a fan-out the attachment can satisfy.
    if (s.kind == KopStageKind::kRoute) {
      if (i + 1 != prog.stages.size()) {
        flag("route-not-last", si, "route stage must be the final stage");
      }
      if (s.n_sinks < 2 || s.n_sinks > kKopMaxSinks) {
        flag("sink-mismatch", si,
             Detail("route fan-out %lld outside [2, %lld]", s.n_sinks, kKopMaxSinks));
      }
    } else if (s.n_sinks != 1) {
      flag("sink-mismatch", si,
           Detail("non-route stage declares %lld sinks (want 1)", s.n_sinks, 0));
    }
  }
  return findings;
}

std::vector<KopSeededViolation> KopSeededViolations(int64_t chunk_bytes) {
  std::vector<KopSeededViolation> v;

  // empty-program: no stages at all.
  v.push_back({"empty-program", KopProgram{}});

  // too-many-stages: kKopMaxStages+1 checksum stages.
  {
    KopProgram p;
    for (int i = 0; i < kKopMaxStages + 1; ++i)
      p.stages.push_back(KopStage{KopStageKind::kChecksum});
    v.push_back({"too-many-stages", std::move(p)});
  }

  // unbounded-loop: a checksum stage asking for more repeats than the bound.
  {
    KopProgram p;
    KopStage s;
    s.kind = KopStageKind::kChecksum;
    s.repeat = kKopMaxRepeat + 1;
    p.stages.push_back(s);
    v.push_back({"unbounded-loop", std::move(p)});
  }

  // out-of-chunk: a window starting past the end of the chunk.
  {
    KopProgram p;
    KopStage s;
    s.kind = KopStageKind::kFilter;
    s.off = chunk_bytes;  // data[chunk_bytes] is one past the end
    s.len = 1;
    p.stages.push_back(s);
    v.push_back({"out-of-chunk", std::move(p)});
  }

  // route-not-last: a route followed by a checksum.
  {
    KopProgram p;
    KopStage r;
    r.kind = KopStageKind::kRoute;
    r.n_sinks = 2;
    p.stages.push_back(r);
    p.stages.push_back(KopStage{KopStageKind::kChecksum});
    v.push_back({"route-not-last", std::move(p)});
  }

  // sink-mismatch: a route whose fan-out a splice cannot have.
  {
    KopProgram p;
    KopStage r;
    r.kind = KopStageKind::kRoute;
    r.n_sinks = 1;  // "routing" to one sink is not routing
    p.stages.push_back(r);
    v.push_back({"sink-mismatch", std::move(p)});
  }

  return v;
}

KopOutcome KopExecChunk(const KopProgram& prog, SpliceChunk& chunk, KopRunState* st,
                        const CostConfig& costs) {
  KopOutcome out;
  st->chunks_in += 1;
  st->bytes_in += chunk.nbytes;

  // The incoming chunk.data aliases the buffer cache's storage (the paper's
  // zero-copy trick), so the first transform writes a private copy
  // (MakeWritable) and is charged for it — exactly what the zero_copy=false
  // ablation charges.
  bool copy_charged = false;

  for (size_t i = 0; i < prog.stages.size(); ++i) {
    const KopStage& s = prog.stages[i];
    out.cost += costs.kop_stage_overhead;

    int64_t off = 0, len = 0;
    if (!ResolveWindow(s, chunk.nbytes, &off, &len)) {
      // Out-of-chunk access at runtime (short last chunk): reject rather
      // than read past the payload.
      st->chunks_rejected += 1;
      out.kind = KopOutcome::Kind::kReject;
      out.error = kErrKopReject;
      return out;
    }
    const uint8_t* data = chunk.data ? chunk.data->data() : nullptr;

    switch (s.kind) {
      case KopStageKind::kChecksum: {
        for (int r = 0; r < s.repeat; ++r) {
          out.cost += costs.ChecksumTime(len);
          // FNV-style multiply-xor: a plain rotate-xor fold cancels to zero
          // over periodic payloads (any pattern whose period divides the
          // window), which would make the CQE checksum useless for real data.
          uint64_t acc = st->checksum;
          for (int64_t b = 0; b < len; ++b)
            acc = (acc ^ data[off + b]) * 0x100000001b3ull;
          st->checksum = acc;
        }
        break;
      }
      case KopStageKind::kFilter: {
        out.cost += costs.KopScanTime(len);
        const bool eq = data[off] == s.arg;
        if (s.filter_mode == KopFilterMode::kAbortIfEq) {
          if (eq) {
            st->chunks_rejected += 1;
            out.kind = KopOutcome::Kind::kReject;
            out.error = kErrKopReject;
            return out;
          }
          break;
        }
        const bool keep = (s.filter_mode == KopFilterMode::kKeepIfEq) ? eq : !eq;
        if (!keep) {
          st->chunks_dropped += 1;
          out.kind = KopOutcome::Kind::kDrop;
          return out;
        }
        break;
      }
      case KopStageKind::kTransform: {
        if (!copy_charged) {
          out.cost += costs.BcopyTime(chunk.nbytes);
          copy_charged = true;
        }
        out.cost += costs.BcopyTime(len);  // read-modify-write pass
        uint8_t* mut = MakeWritable(chunk.data).data();
        for (int64_t b = 0; b < len; ++b) mut[off + b] ^= s.arg;
        break;
      }
      case KopStageKind::kRoute: {
        out.route = static_cast<int>(data[off] % static_cast<uint8_t>(s.n_sinks));
        break;
      }
    }
  }

  st->bytes_out += chunk.nbytes;
  return out;
}

}  // namespace ikdp
