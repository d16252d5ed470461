// Renderings of a metrics_snapshot / trace buffer. Three formats:
//
//   * export_text   — the human report stream_runner prints after a
//                     replay (grouped by dotted metric prefix). This is
//                     THE formatting path; structures no longer carry
//                     bespoke printf blocks.
//   * export_jsonl  — one JSON object per metric per line, for CI
//                     artifacts and bench_diff.py --counters. Schema:
//                       {"label":L,"metric":N,"kind":K,"value":V}
//                     histograms add "count","sum","buckets" (log2
//                     buckets, index = bit_width of the value).
//   * export_chrome_trace — Chrome trace-event JSON ("traceEvents"
//                     array) for chrome://tracing / Perfetto.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.hpp"

namespace bdc::obs {

/// Human-readable report: rows grouped by first dotted name segment,
/// two-space indented to match stream_runner's historical layout.
void export_text(std::FILE* out, const metrics_snapshot& snap);

/// JSON-lines. `label` tags every line (run configuration, e.g.
/// "dynamic/blocked"); empty is allowed.
void export_jsonl(std::ostream& out, const metrics_snapshot& snap,
                  std::string_view label);

/// Chrome trace-event JSON. `dropped` (from trace_recorder::dropped())
/// is recorded as metadata so truncated traces are self-describing.
void export_chrome_trace(std::ostream& out,
                         const std::vector<trace_event>& events,
                         uint64_t dropped);

/// JSON string escaping for the small set of characters our metric
/// names/labels can contain (exposed for tests).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace bdc::obs
