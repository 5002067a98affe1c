// Shared scaffolding for the bench executables: argv parsing, the CPU-ledger
// sanity check, the aligned pass/FAIL check list, file slurping, and the one
// writer every BENCH_*.json goes through.  Keeping these in one place keeps
// every bench's output, artifact shape and exit-code discipline identical.

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <concepts>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/experiment.h"
#include "src/workload/programs.h"

namespace ikdp::bench {

// Parses the optional leading megabyte-count argument (clamped to >= 1).
int64_t ParseMb(int argc, char** argv, int64_t def = 8);

// Parses the optional grid argument: none selects the full grid, `small`
// the reduced one.  Anything else prints usage and exits 2.
bool SmallGrid(int argc, char** argv);

// The submit mode's name as benches print it and artifact rows carry it.
const char* ModeName(SubmitMode m);

// Accounting identity: idle = elapsed - (process + switch + interrupt work)
// must land in [0, 1] or the bench's numbers rest on a broken CPU ledger.
// Prints on stderr (so a passing run's stdout is unchanged) and returns
// false on violation.
bool LedgerOk(const ExperimentResult& e, const char* label);

// An aligned "  <what>  ok|FAIL" list; `ok` latches false on any failure.
// Every check is kept, in order, so an artifact can publish it as a gate.
struct CheckList {
  bool ok = true;
  std::vector<std::pair<std::string, bool>> results;
  void Check(bool cond, const char* what);
};

// Reads a whole file into a string (empty on open failure).
std::string Slurp(const char* path);

// The members of one JSON object, rendered in insertion order.  Numbers
// take an explicit precision so each field keeps the digits it was
// designed with.
class JsonFields {
 public:
  JsonFields& Str(const char* key, const std::string& v);
  JsonFields& Int(const char* key, std::integral auto v) { return Raw(key, std::to_string(v)); }
  JsonFields& Num(const char* key, double v, int precision);
  JsonFields& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  std::string Object() const { return "{" + members_ + "}"; }

 private:
  JsonFields& Raw(const char* key, const std::string& json);
  std::string members_;
};

// One ikdp.bench.v1 document (docs/observability.md, "Artifact schema"):
//   {"schema":"ikdp.bench.v1","bench":<name>,"config":{...},"rows":[{...}],
//    "gates":{<check text>: <bool>, ...}}
struct BenchArtifact {
  explicit BenchArtifact(std::string name) : bench(std::move(name)) {}

  std::string bench;
  JsonFields config;
  std::vector<JsonFields> rows;

  // Writes the document to `path` with every check recorded so far as a
  // gate, then re-reads it with the strict parser and adds one check that
  // every row and gate came back.
  void Write(const char* path, CheckList* checks) const;
};

}  // namespace ikdp::bench

#endif  // BENCH_BENCH_COMMON_H_
