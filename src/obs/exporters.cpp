#include "obs/exporters.hpp"

#include <cinttypes>
#include <cstdint>

namespace bdc::obs {
namespace {

[[nodiscard]] std::string_view group_of(std::string_view name) {
  const size_t dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(0, dot);
}

}  // namespace

void export_text(std::FILE* out, const metrics_snapshot& snap) {
  metrics_snapshot sorted = snap;
  sorted.sort();
  std::string_view group;
  size_t in_group = 0;
  for (const metric_row& r : sorted.rows) {
    const std::string_view g = group_of(r.name);
    if (g != group) {
      if (!group.empty()) std::fputc('\n', out);
      std::fprintf(out, "  %.*s:", static_cast<int>(g.size()), g.data());
      group = g;
      in_group = 0;
    }
    const std::string_view rest =
        r.name.size() > g.size() ? std::string_view(r.name).substr(g.size() + 1)
                                 : std::string_view("value");
    // Four metrics per line keeps the report compact without a pager.
    if (in_group > 0 && in_group % 4 == 0)
      std::fprintf(out, "\n%*s", static_cast<int>(g.size()) + 3, "");
    ++in_group;
    switch (r.kind) {
      case metric_kind::counter:
        std::fprintf(out, " %.*s %" PRIu64 " |",
                     static_cast<int>(rest.size()), rest.data(),
                     static_cast<uint64_t>(r.value));
        break;
      case metric_kind::gauge:
        std::fprintf(out, " %.*s %" PRId64 " |",
                     static_cast<int>(rest.size()), rest.data(), r.value);
        break;
      case metric_kind::histogram:
        std::fprintf(out, " %.*s n=%" PRIu64 " mean=%.1f sum=%" PRIu64 " |",
                     static_cast<int>(rest.size()), rest.data(), r.count,
                     r.mean(), r.sum);
        break;
    }
  }
  if (!sorted.rows.empty()) std::fputc('\n', out);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void export_jsonl(std::ostream& out, const metrics_snapshot& snap,
                  std::string_view label) {
  const std::string esc_label = json_escape(label);
  for (const metric_row& r : snap.rows) {
    out << "{\"label\":\"" << esc_label << "\",\"metric\":\""
        << json_escape(r.name) << "\",\"kind\":\"" << to_string(r.kind)
        << "\"";
    if (r.kind == metric_kind::histogram) {
      out << ",\"count\":" << r.count << ",\"sum\":" << r.sum
          << ",\"buckets\":[";
      for (size_t b = 0; b < r.buckets.size(); ++b) {
        if (b > 0) out << ',';
        out << r.buckets[b];
      }
      out << ']';
    } else {
      out << ",\"value\":" << r.value;
    }
    out << "}\n";
  }
}

namespace {
/// Writes integer nanoseconds as fixed-point microseconds with three
/// decimals ("12345678.901"), exact at any trace length — a double at the
/// stream's default six significant digits rounds to whole microseconds
/// after one second of trace.
void write_micros(std::ostream& out, uint64_t ns) {
  char frac[4];
  std::snprintf(frac, sizeof frac, "%03u", static_cast<unsigned>(ns % 1000));
  out << ns / 1000 << '.' << frac;
}
}  // namespace

void export_chrome_trace(std::ostream& out,
                         const std::vector<trace_event>& events,
                         uint64_t dropped) {
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped << "},\"traceEvents\":[";
  bool first = true;
  for (const trace_event& ev : events) {
    if (ev.name == nullptr) continue;
    if (!first) out << ',';
    first = false;
    // Chrome's ts/dur are microseconds (fractions allowed).
    out << "\n{\"name\":\"" << json_escape(ev.name)
        << "\",\"ph\":\"" << ev.ph << "\",\"pid\":1,\"tid\":" << ev.tid
        << ",\"ts\":";
    write_micros(out, ev.ts_ns);
    if (ev.ph == 'X') {
      out << ",\"dur\":";
      write_micros(out, ev.dur_ns);
    }
    if (ev.ph == 'i') out << ",\"s\":\"t\"";
    out << ",\"cat\":\"bdc\"}";
  }
  out << "\n]}\n";
}

}  // namespace bdc::obs
