// trace-inspect: summarize a JSONL event trace produced by `digruber-run
// --trace out.jsonl --trace-format jsonl` (or any bench's --trace flag).
//
//   trace-inspect trace.jsonl [--cat NAME] [--actor N] [--name NAME]
//                 [--trace-id N] [--from S] [--to S] [--recovery]
//                 [--overlay] [--events] [--top N]
//
// Prints per-span-name duration histograms (count, p50/p90/p99/max from
// the same HDR-style log-bucketed histogram the metrics layer uses),
// instant/counter tallies, and — with --events — the matching event lines
// themselves. Filters compose (AND). `--recovery` is a preset name filter
// keeping only the durability/recovery lifecycle: WAL appends and fsync
// barriers, checkpoints, replay spans, restarts, anti-entropy pulls, dedup
// hits and client report retries. `--overlay` keeps the dissemination
// lifecycle: exchange spans, structure rebuilds, TTL relay drops, grave
// probes, and digest-driven pulls.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "digruber/common/table.hpp"
#include "digruber/trace/histogram.hpp"

using namespace digruber;

namespace {

/// One parsed JSONL record. Field set mirrors trace::write_jsonl.
struct Line {
  std::uint64_t seq = 0;
  std::string kind;  // B | E | I | C
  std::string cat;
  std::uint64_t actor = 0;
  std::string name;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::int64_t ts_us = 0;
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

/// Minimal extractor for the flat one-level JSON objects write_jsonl
/// emits; not a general JSON parser.
bool find_raw(const std::string& line, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t i = at + needle.size();
  while (i < line.size() && line[i] == ' ') ++i;
  if (i >= line.size()) return false;
  if (line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    if (end == std::string::npos) return false;
    out = line.substr(i + 1, end - i - 1);
    return true;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  out = line.substr(i, end - i);
  return true;
}

std::uint64_t find_u64(const std::string& line, const std::string& key) {
  std::string raw;
  return find_raw(line, key, raw) ? std::strtoull(raw.c_str(), nullptr, 10) : 0;
}

std::int64_t find_i64(const std::string& line, const std::string& key) {
  std::string raw;
  return find_raw(line, key, raw) ? std::strtoll(raw.c_str(), nullptr, 10) : 0;
}

bool parse_line(const std::string& text, Line& out) {
  if (text.empty() || text[0] != '{') return false;
  if (!find_raw(text, "kind", out.kind)) return false;
  if (!find_raw(text, "cat", out.cat)) return false;
  if (!find_raw(text, "name", out.name)) return false;
  out.seq = find_u64(text, "seq");
  out.actor = find_u64(text, "actor");
  out.trace = find_u64(text, "trace");
  out.span = find_u64(text, "span");
  out.parent = find_u64(text, "parent");
  out.ts_us = find_i64(text, "ts_us");
  out.a0 = find_i64(text, "a0");
  out.a1 = find_i64(text, "a1");
  return true;
}

struct Options {
  std::string path;
  std::optional<std::string> cat;
  std::optional<std::uint64_t> actor;
  std::optional<std::string> name;
  std::optional<std::uint64_t> trace_id;
  std::optional<double> from_s;
  std::optional<double> to_s;
  bool recovery = false;
  bool overlay = false;
  bool events = false;
  std::size_t top = 20;
};

/// The durability/recovery lifecycle, end to end: device traffic, replay,
/// the gap-filling anti-entropy that follows it, and the exactly-once
/// machinery on both sides of the wire.
constexpr const char* kRecoveryNames[] = {
    "wal.append",        "wal.fsync",      "dp.checkpoint",
    "dp.recover.replay", "dp.restart",     "dp.pull",
    "dp.pull_served",    "dp.dedup_hit",   "report.retry",
};

/// The dissemination-overlay lifecycle: every exchange push, the
/// structure repairs under churn, TTL relay suppressions, grave probes
/// to believed-dead peers, and the anti-entropy that backfills what a
/// sparse topology dropped mid-path.
constexpr const char* kOverlayNames[] = {
    "dp.exchange",       "overlay.rebuild",    "overlay.relay_drop",
    "overlay.grave_probe", "dp.digest_mismatch", "dp.pull",
    "dp.pull_served",
};

bool name_in(const std::string& name, std::span<const char* const> set) {
  for (const char* candidate : set) {
    if (name == candidate) return true;
  }
  return false;
}

bool recovery_name(const std::string& name) {
  return name_in(name, kRecoveryNames);
}

bool overlay_name(const std::string& name) {
  return name_in(name, kOverlayNames);
}

int usage(const char* argv0, int code) {
  (code ? std::cerr : std::cout)
      << "usage: " << argv0
      << " trace.jsonl [--cat NAME] [--actor N] [--name NAME] [--trace-id N]"
         " [--from S] [--to S] [--recovery] [--overlay] [--events]"
         " [--top N]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return usage(argv[0], 0);
    if (arg == "--cat") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.cat = v;
    } else if (arg == "--actor") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.actor = std::strtoull(v, nullptr, 10);
    } else if (arg == "--name") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.name = v;
    } else if (arg == "--trace-id") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.trace_id = std::strtoull(v, nullptr, 10);
    } else if (arg == "--from") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.from_s = std::strtod(v, nullptr);
    } else if (arg == "--to") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.to_s = std::strtod(v, nullptr);
    } else if (arg == "--recovery") {
      opt.recovery = true;
    } else if (arg == "--overlay") {
      opt.overlay = true;
    } else if (arg == "--events") {
      opt.events = true;
    } else if (arg == "--top") {
      const char* v = next();
      if (!v) return usage(argv[0], 2);
      opt.top = std::size_t(std::strtoull(v, nullptr, 10));
    } else if (arg[0] != '-' && opt.path.empty()) {
      opt.path = arg;
    } else {
      return usage(argv[0], 2);
    }
  }
  if (opt.path.empty()) return usage(argv[0], 2);

  std::ifstream in(opt.path);
  if (!in) {
    std::cerr << "cannot open " << opt.path << "\n";
    return 1;
  }

  std::vector<Line> lines;
  std::string text;
  std::uint64_t skipped = 0;
  while (std::getline(in, text)) {
    Line line;
    if (!parse_line(text, line)) {
      if (!text.empty()) ++skipped;
      continue;
    }
    if (opt.cat && line.cat != *opt.cat) continue;
    if (opt.actor && line.actor != *opt.actor) continue;
    if (opt.name && line.name != *opt.name) continue;
    if (opt.recovery && !recovery_name(line.name)) continue;
    if (opt.overlay && !overlay_name(line.name)) continue;
    if (opt.trace_id && line.trace != *opt.trace_id) continue;
    const double ts_s = double(line.ts_us) * 1e-6;
    if (opt.from_s && ts_s < *opt.from_s) continue;
    if (opt.to_s && ts_s >= *opt.to_s) continue;
    lines.push_back(std::move(line));
  }
  if (skipped) std::cerr << "warning: " << skipped << " unparseable line(s)\n";
  if (lines.empty()) {
    std::cout << "no events match\n";
    return 0;
  }

  std::int64_t lo = lines.front().ts_us, hi = lines.front().ts_us;
  for (const Line& line : lines) {
    lo = std::min(lo, line.ts_us);
    hi = std::max(hi, line.ts_us);
  }
  std::cout << lines.size() << " events, sim-time "
            << Table::num(double(lo) * 1e-6, 1) << "s .. "
            << Table::num(double(hi) * 1e-6, 1) << "s\n\n";

  // Pair up spans within (span id); ends carry the same span id as their
  // begin. Orphans (ring-dropped halves) are counted, not guessed at.
  std::map<std::uint64_t, std::int64_t> open;  // span id -> begin ts
  std::map<std::string, trace::LogHistogram> durations;
  std::map<std::string, std::uint64_t> instants;
  std::map<std::string, std::uint64_t> counters;
  std::uint64_t orphan_ends = 0, unclosed = 0;
  for (const Line& line : lines) {
    if (line.kind == "B") {
      open[line.span] = line.ts_us;
    } else if (line.kind == "E") {
      const auto it = open.find(line.span);
      if (it == open.end()) {
        ++orphan_ends;
        continue;
      }
      auto [hist_it, _] = durations.try_emplace(line.name);
      hist_it->second.record(line.ts_us - it->second);
      open.erase(it);
    } else if (line.kind == "I") {
      ++instants[line.name];
    } else if (line.kind == "C") {
      ++counters[line.name];
    }
  }
  unclosed = open.size();

  if (!durations.empty()) {
    Table spans({"span", "count", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)"});
    // Most-frequent first; --top bounds the listing.
    std::vector<const std::pair<const std::string, trace::LogHistogram>*> order;
    for (const auto& entry : durations) order.push_back(&entry);
    std::sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
      if (a->second.count() != b->second.count())
        return a->second.count() > b->second.count();
      return a->first < b->first;
    });
    if (order.size() > opt.top) order.resize(opt.top);
    for (const auto* entry : order) {
      const trace::LogHistogram& h = entry->second;
      spans.add_row({entry->first, std::to_string(h.count()),
                     Table::num(double(h.p50()) * 1e-3, 2),
                     Table::num(double(h.p90()) * 1e-3, 2),
                     Table::num(double(h.p99()) * 1e-3, 2),
                     Table::num(double(h.max()) * 1e-3, 2)});
    }
    spans.render(std::cout);
    if (orphan_ends || unclosed) {
      std::cout << "(" << orphan_ends << " end(s) without a begin, " << unclosed
                << " begin(s) without an end — ring wrap or still-open "
                   "spans)\n";
    }
    std::cout << "\n";
  }

  auto render_tally = [&](const char* title,
                          const std::map<std::string, std::uint64_t>& tally) {
    if (tally.empty()) return;
    Table table({title, "count"});
    std::vector<std::pair<std::string, std::uint64_t>> order(tally.begin(),
                                                             tally.end());
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (order.size() > opt.top) order.resize(opt.top);
    for (const auto& [name, count] : order) {
      table.add_row({name, std::to_string(count)});
    }
    table.render(std::cout);
    std::cout << "\n";
  };
  render_tally("instant", instants);
  render_tally("counter", counters);

  if (opt.events) {
    for (const Line& line : lines) {
      std::cout << Table::num(double(line.ts_us) * 1e-6, 6) << "s " << line.kind
                << " " << line.cat << "/" << line.actor << " " << line.name
                << " trace=" << line.trace << " span=" << line.span
                << " a0=" << line.a0 << " a1=" << line.a1 << "\n";
    }
  }
  return 0;
}
