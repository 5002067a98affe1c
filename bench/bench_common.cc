#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/metrics/trace_export.h"

namespace ikdp::bench {

int64_t ParseMb(int argc, char** argv, int64_t def) {
  int64_t mb = def;
  if (argc > 1) {
    mb = std::max(1l, std::strtol(argv[1], nullptr, 10));
  }
  return mb;
}

bool SmallGrid(int argc, char** argv) {
  if (argc > 2 || (argc == 2 && std::strcmp(argv[1], "small") != 0)) {
    std::fprintf(stderr, "usage: %s [small]\n", argv[0]);
    std::exit(2);
  }
  return argc == 2;
}

const char* ModeName(SubmitMode m) {
  switch (m) {
    case SubmitMode::kSyncLoop:
      return "sync";
    case SubmitMode::kFasyncSigio:
      return "fasync";
    case SubmitMode::kRing:
      return "ring";
  }
  return "?";
}

bool LedgerOk(const ExperimentResult& e, const char* label) {
  if (e.idle_fraction < 0.0 || e.idle_fraction > 1.0) {
    std::fprintf(stderr, "ACCOUNTING BUG: %s idle fraction %.4f out of [0,1]\n", label,
                 e.idle_fraction);
    return false;
  }
  return true;
}

void CheckList::Check(bool cond, const char* what) {
  std::printf("  %-58s %s\n", what, cond ? "ok" : "FAIL");
  results.emplace_back(what, cond);
  if (!cond) {
    ok = false;
  }
}

std::string Slurp(const char* path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

JsonFields& JsonFields::Str(const char* key, const std::string& v) {
  return Raw(key, std::string("\"").append(JsonEscape(v)).append("\""));
}

JsonFields& JsonFields::Num(const char* key, double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return Raw(key, buf);
}

JsonFields& JsonFields::Raw(const char* key, const std::string& json) {
  members_.append(members_.empty() ? "\"" : ",\"").append(JsonEscape(key)).append("\":");
  members_.append(json);
  return *this;
}

void BenchArtifact::Write(const char* path, CheckList* checks) const {
  std::string doc = "{\n\"schema\":\"ikdp.bench.v1\",\n\"bench\":\"";
  doc += JsonEscape(bench) + "\",\n\"config\":" + config.Object() + ",\n\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    doc.append(i == 0 ? "\n" : ",\n").append(rows[i].Object());
  }
  doc.append("\n],\n\"gates\":{");
  for (size_t i = 0; i < checks->results.size(); ++i) {
    const auto& [what, passed] = checks->results[i];
    doc.append(i == 0 ? "\n\"" : ",\n\"").append(JsonEscape(what));
    doc.append(passed ? "\":true" : "\":false");
  }
  doc.append("\n}\n}\n");
  std::ofstream(path) << doc;

  // A repeated check text would collapse into one gate; the count catches it.
  JsonValue back;
  const bool ok = ParseJson(Slurp(path), &back) && back.Get("rows") != nullptr &&
                  back.Get("rows")->items.size() == rows.size() && back.Get("gates") != nullptr &&
                  back.Get("gates")->members.size() == checks->results.size();
  checks->Check(ok, (std::string(path) + " round-trips (strict reader)").c_str());
}

}  // namespace ikdp::bench
