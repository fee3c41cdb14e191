#include "digruber/trace/export.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <unordered_set>

namespace digruber::trace {

namespace {

const char* kind_code(EventKind kind) {
  switch (kind) {
    case EventKind::kBegin:
      return "B";
    case EventKind::kEnd:
      return "E";
    case EventKind::kInstant:
      return "I";
    case EventKind::kCounter:
      return "C";
  }
  return "?";
}

/// Names are controlled string literals, but escape defensively so a
/// future name can never emit invalid JSON.
void write_escaped(std::ostream& os, const char* s) {
  for (; *s; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
}

/// Stable track id per (category, actor): categories get disjoint tid
/// ranges so tracks group by subsystem in the viewer.
std::map<std::pair<std::uint8_t, std::uint64_t>, std::uint64_t> track_ids(
    const Tracer& tracer) {
  std::map<std::pair<std::uint8_t, std::uint64_t>, std::uint64_t> tids;
  std::uint64_t next = 1;
  for (const auto& [category, actor] : tracer.actors()) {
    tids[{std::uint8_t(category), actor}] = next++;
  }
  return tids;
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer) {
  const auto tids = track_ids(tracer);
  const std::vector<TraceEvent> events = tracer.query();

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track-name metadata so Perfetto shows "client/3", "dp/0", ... rows.
  for (const auto& [key, tid] : tids) {
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
       << category_name(Category(key.first)) << "/" << key.second << "\"}}";
    sep();
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << tid
       << "}}";
  }

  std::unordered_set<std::uint64_t> traces_seen;
  for (const TraceEvent& event : events) {
    const std::uint64_t tid = tids.at({std::uint8_t(event.category), event.actor});
    sep();
    if (event.kind == EventKind::kCounter) {
      os << "{\"ph\":\"C\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << event.ts.us()
         << ",\"name\":\"";
      write_escaped(os, event.name);
      os << "\",\"args\":{\"value\":" << event.a0 << "}}";
      continue;
    }
    const char* ph = event.kind == EventKind::kBegin  ? "B"
                     : event.kind == EventKind::kEnd ? "E"
                                                     : "i";
    os << "{\"ph\":\"" << ph << "\",\"pid\":1,\"tid\":" << tid
       << ",\"ts\":" << event.ts.us() << ",\"cat\":\""
       << category_name(event.category) << "\",\"name\":\"";
    write_escaped(os, event.name);
    os << "\"";
    if (event.kind == EventKind::kInstant) os << ",\"s\":\"t\"";
    os << ",\"args\":{\"trace\":" << event.trace << ",\"span\":" << event.span
       << ",\"parent\":" << event.parent << ",\"a0\":" << event.a0
       << ",\"a1\":" << event.a1 << "}}";

    // Flow arrows stitch one trace's spans across tracks: "s" opens the
    // flow at the trace's first span, "t" steps it through each later one.
    if (event.kind == EventKind::kBegin && event.trace != 0) {
      const bool opened = !traces_seen.insert(event.trace).second;
      sep();
      os << "{\"ph\":\"" << (opened ? "t" : "s") << "\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << event.ts.us() << ",\"cat\":\"flow\",\"name\":\"trace\""
         << ",\"id\":" << event.trace << "}";
    }
  }
  os << "\n]}\n";
}

void write_jsonl(std::ostream& os, const Tracer& tracer) {
  for (const TraceEvent& event : tracer.query()) {
    os << "{\"seq\":" << event.seq << ",\"kind\":\"" << kind_code(event.kind)
       << "\",\"cat\":\"" << category_name(event.category) << "\",\"actor\":"
       << event.actor << ",\"name\":\"";
    write_escaped(os, event.name);
    os << "\",\"trace\":" << event.trace << ",\"span\":" << event.span
       << ",\"parent\":" << event.parent << ",\"ts_us\":" << event.ts.us()
       << ",\"a0\":" << event.a0 << ",\"a1\":" << event.a1 << "}\n";
  }
}

std::string write_trace_file(const std::string& path, const std::string& format,
                             const Tracer& tracer) {
  std::ofstream os(path);
  if (!os) return "cannot open " + path;
  if (format == "chrome") {
    write_chrome_trace(os, tracer);
  } else if (format == "jsonl") {
    write_jsonl(os, tracer);
  } else {
    return "unknown trace format '" + format + "' (chrome|jsonl)";
  }
  os.flush();
  return os ? std::string() : "write to " + path + " failed";
}

}  // namespace digruber::trace
