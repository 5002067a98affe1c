// Machine-readable exports of the tracing/telemetry layer.
//
// ExportChromeTrace serializes a TraceLog snapshot as Chrome trace-event
// JSON (the {"traceEvents": [...]} format), loadable in Perfetto or
// chrome://tracing.  Begin/end kinds become duration slices (syscalls, disk
// transfers) and async spans (splices, ring ops);
// everything else becomes instant events.  Timestamps are microseconds with
// nanosecond precision kept in the fraction.
//
// ExportRegistryJson serializes a MetricsRegistry under the stable schema
// id "ikdp.telemetry.v1":
//
//   { "schema": "ikdp.telemetry.v1",
//     "counters": { "<name>": <int>, ... },
//     "histograms": { "<name>": { "count", "sum", "min", "max",
//                                 "p50", "p90", "p99",
//                                 "buckets": [ {"lo","hi","count"}, ... ] } } }
//
// ParseJson is a minimal self-contained JSON reader — just enough for tests
// and benches to round-trip the exports without external dependencies.

#ifndef SRC_METRICS_TRACE_EXPORT_H_
#define SRC_METRICS_TRACE_EXPORT_H_

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/sim/trace.h"

namespace ikdp {

inline constexpr const char* kTelemetrySchema = "ikdp.telemetry.v1";

// Escapes `s` for inclusion inside a JSON string literal (quotes,
// backslashes, and control characters).  Every string this module writes —
// event names, counter keys, device tags — goes through here; emitters
// elsewhere that hand-build JSON should too, so a device named
// `rz56"\evil` can never produce unparseable output.
std::string JsonEscape(const std::string& s);

void ExportChromeTrace(const TraceLog& log, std::ostream& os);

// `extra_sections`, when non-empty, is pre-rendered JSON of the form
// `"key":{...},"key2":[...]` spliced into the top-level object after
// "histograms" — how the span layer (src/metrics/span_trace.h) adds its
// optional "spans"/"attribution" sections without this module depending on
// it.  Callers are responsible for the rendering being valid JSON.
void ExportRegistryJson(const MetricsRegistry& registry, std::ostream& os,
                        const std::string& extra_sections = "");

// --- minimal JSON reader (for round-trip validation) ---

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;

  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> items;                // kArray
  std::map<std::string, JsonValue> members;    // kObject

  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }

  // Object member access; returns nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;
};

// Parses `text` into `*out`.  Returns false (and leaves *out unspecified)
// on malformed input or trailing garbage.
bool ParseJson(const std::string& text, JsonValue* out);

}  // namespace ikdp

#endif  // SRC_METRICS_TRACE_EXPORT_H_
