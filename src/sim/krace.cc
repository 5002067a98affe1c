#include "src/sim/krace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/kern/ctx.h"
#include "src/sim/event_queue.h"

namespace ikdp {

namespace {

// splitmix64: a well-mixed 64-bit permutation, enough to make the perturbed
// tie-break order look unrelated to insertion order while staying a strict
// total order per seed.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Collect mode keeps a bounded report (a single hot pair could otherwise
// flood the run).
constexpr size_t kMaxRaces = 256;

const char* AccessKindName(KraceAccess k) {
  switch (k) {
    case KraceAccess::kRead:
      return "read";
    case KraceAccess::kWrite:
      return "write";
    case KraceAccess::kCommute:
      return "commute";
  }
  return "?";
}

}  // namespace

size_t KraceDetector::FieldKeyHash::operator()(const FieldKey& k) const {
  // FNV-1a over the field name (string literals for the same field may have
  // distinct addresses across translation units), mixed with the object.
  uint64_t h = 1469598103934665603ull;
  for (const char* p = k.field; *p != '\0'; ++p) {
    h = (h ^ static_cast<uint64_t>(*p)) * 1099511628211ull;
  }
  return static_cast<size_t>(Mix64(h ^ reinterpret_cast<uintptr_t>(k.obj)));
}

bool KraceDetector::FieldKeyEq::operator()(const FieldKey& a, const FieldKey& b) const {
  return a.obj == b.obj && std::strcmp(a.field, b.field) == 0;
}

void KraceDetector::Fold(const KraceDetector& run) {
  const size_t n = std::min(kMaxRaces - races_.size(), run.races_.size());
  races_.insert(races_.end(), run.races_.begin(), run.races_.begin() + n);
}

std::string KraceDetector::Race::Describe() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s @%p at t=%lld ns: %s in event #%llu (%s, %s:%d) is "
                "concurrent with %s in event #%llu (%s, %s:%d) — no "
                "happens-before chain; a legal tie-break permutation reorders "
                "them",
                field, obj, static_cast<long long>(time), AccessKindName(prior.kind),
                static_cast<unsigned long long>(EventSeq(prior.event)), prior.ctx, prior.file,
                prior.line, AccessKindName(current.kind),
                static_cast<unsigned long long>(EventSeq(current.event)), current.ctx,
                current.file, current.line);
  return std::string(buf);
}

KraceDetector::PendingAnc* KraceDetector::FindPending(EventId child) {
  const auto end = pending_anc_.begin() + static_cast<std::ptrdiff_t>(n_pending_);
  const auto it = std::lower_bound(pending_anc_.begin(), end, child,
                                   [](const PendingAnc& e, EventId id) { return e.child < id; });
  return it != end && it->child == child ? &*it : nullptr;
}

void KraceDetector::OnSchedule(EventId child, SimTime when) {
  if (!in_event_ || when != now_) {
    // Cross-timestamp scheduling is ordered by the clock; host-side
    // scheduling has no executing-event creator.  Neither needs an edge.
    return;
  }
  // Same-timestamp child: it inherits the creator's same-timestamp ancestor
  // chain plus the creator itself.
  if (n_pending_ == pending_anc_.size()) {
    pending_anc_.emplace_back();
  }
  PendingAnc& e = pending_anc_[n_pending_++];
  e.child = child;
  e.anc.assign(cur_anc_.begin(), cur_anc_.end());
  e.anc.insert(std::upper_bound(e.anc.begin(), e.anc.end(), cur_), cur_);
}

void KraceDetector::OnEventBegin(EventId id, SimTime when) {
  if (when != now_) {
    // Time advanced: everything recorded for the previous timestamp is
    // ordered before this event by the clock.  Same-timestamp children
    // always execute (or are cancelled) before time advances, so the
    // pending list cannot carry live entries across timestamps.
    now_ = when;
    n_pending_ = 0;
  }
  in_event_ = true;
  cur_ = id;
  cur_anc_.clear();
  if (PendingAnc* e = FindPending(id)) {
    cur_anc_.swap(e->anc);  // the entry keeps cur_anc_'s old (empty) storage
  }
}

void KraceDetector::OnEventEnd() {
  in_event_ = false;
  cur_ = 0;
  cur_anc_.clear();
}

void KraceDetector::OnCancel(EventId id) {
  if (PendingAnc* e = FindPending(id)) {
    e->anc.clear();
  }
}

void KraceDetector::ChannelRelease(const void* chan) {
  if (!in_event_) {
    return;  // host-side publication is ordered with everything
  }
  ChannelState& st = channels_[chan];
  if (st.time != now_) {
    st.time = now_;
    st.releasers.clear();
  }
  // The acquirer is ordered after everything that happens-before the
  // release, not just the releasing event itself: record cur_'s
  // same-timestamp ancestors too, so X -schedule-> A -channel-> B composes
  // into X happens-before B.  Duplicates are harmless (ChannelAcquire
  // drops them).
  st.releasers.push_back(cur_);
  st.releasers.insert(st.releasers.end(), cur_anc_.begin(), cur_anc_.end());
}

void KraceDetector::ChannelAcquire(const void* chan) {
  if (!in_event_) {
    return;
  }
  auto it = channels_.find(chan);
  if (it == channels_.end() || it->second.time != now_) {
    return;  // releases at earlier timestamps are clock-ordered already
  }
  // std::sort, not a merge: inplace_merge may take a heap buffer.
  cur_anc_.insert(cur_anc_.end(), it->second.releasers.begin(), it->second.releasers.end());
  std::sort(cur_anc_.begin(), cur_anc_.end());
  cur_anc_.erase(std::unique(cur_anc_.begin(), cur_anc_.end()), cur_anc_.end());
}

void KraceDetector::OnAccess(const void* obj, const char* field, KraceAccess kind,
                             const char* file, int line) {
  if (mode_ == Mode::kOff || !in_event_) {
    // Host code (setup, verification) runs strictly between events on one
    // thread; it cannot be reordered against anything.
    return;
  }
  FieldSlot& slot = table_[FieldKey{obj, field}];
  if (slot.time != now_) {
    slot.time = now_;
    slot.acc.clear();
  }
  // One record per (event, kind): repeated identical accesses within one
  // event add nothing (program order covers them) and would duplicate race
  // reports.
  for (const AccessRec& r : slot.acc) {
    if (r.event == cur_ && r.kind == kind) {
      return;
    }
  }
  const AccessRec cur{cur_, kind, ExecContextName(CurrentExecContext()), file, line};
  for (const AccessRec& r : slot.acc) {
    if (r.event == cur_) {
      continue;  // same event, different kind: program-ordered
    }
    const bool conflicting =
        (kind == KraceAccess::kWrite || r.kind == KraceAccess::kWrite ||
         (kind == KraceAccess::kCommute) != (r.kind == KraceAccess::kCommute));
    if (!conflicting) {
      continue;  // read/read, or two commuting updates
    }
    if (std::binary_search(cur_anc_.begin(), cur_anc_.end(), r.event)) {
      continue;  // schedule/channel chain orders r before us
    }
    ReportRace(FieldKey{obj, field}, r, cur);
  }
  slot.acc.push_back(cur);
}

void KraceDetector::ReportRace(const FieldKey& key, const AccessRec& prior,
                               const AccessRec& cur) {
  Race race;
  race.obj = key.obj;
  race.field = key.field;
  race.time = now_;
  race.prior = Site{prior.event, prior.ctx, prior.file, prior.line, prior.kind};
  race.current = Site{cur.event, cur.ctx, cur.file, cur.line, cur.kind};
  if (mode_ == Mode::kAbort) {
    ContractAbort("krace: %s", race.Describe().c_str());
  }
  if (races_.size() < kMaxRaces) {
    races_.push_back(std::move(race));
  }
}

uint64_t KraceDetector::TieKey(uint64_t seed, uint64_t seq) {
  if (seed == 0) {
    return seq;  // historical behaviour: schedule order
  }
  return Mix64(seq ^ seed);
}

}  // namespace ikdp
