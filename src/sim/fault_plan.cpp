#include "digruber/sim/fault_plan.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "digruber/common/rng.hpp"

namespace digruber::sim {
namespace {

using Tokens = std::vector<std::string>;

/// Split on whitespace.
Tokens tokenize(const std::string& line) {
  Tokens out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) out.push_back(token);
  return out;
}

/// `key=value` accessor over an event's tokens.
bool find_value(const Tokens& tokens, const std::string& key, std::string& out) {
  const std::string prefix = key + "=";
  for (const std::string& token : tokens) {
    if (token.rfind(prefix, 0) == 0) {
      out = token.substr(prefix.size());
      return true;
    }
  }
  return false;
}

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && !text.empty();
}

bool parse_index(const std::string& text, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || text.empty()) return false;
  out = std::size_t(v);
  return true;
}

/// `90`, `90s`, `1.5m`, `2h` -> simulated Time.
bool parse_time(std::string text, Time& out) {
  double scale = 1.0;
  if (!text.empty()) {
    switch (text.back()) {
      case 's': scale = 1.0; text.pop_back(); break;
      case 'm': scale = 60.0; text.pop_back(); break;
      case 'h': scale = 3600.0; text.pop_back(); break;
      default: break;
    }
  }
  double seconds = 0.0;
  if (!parse_double(text, seconds) || seconds < 0) return false;
  out = Time::from_seconds(seconds * scale);
  return true;
}

/// `3,1,4` -> {3, 1, 4}.
bool parse_index_list(const std::string& text, std::vector<std::size_t>& out) {
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    std::size_t index = 0;
    if (!parse_index(item, index)) return false;
    out.push_back(index);
  }
  return !out.empty();
}

/// `link=a:b` or `dp=i` target for degrade/restore.
Status<> parse_link_target(const Tokens& tokens, FaultEvent& event) {
  std::string value;
  if (find_value(tokens, "link", value)) {
    const auto colon = value.find(':');
    if (colon == std::string::npos || !parse_index(value.substr(0, colon), event.dp) ||
        !parse_index(value.substr(colon + 1), event.peer)) {
      return Status<>::failure("bad link spec (want link=a:b): " + value);
    }
    if (event.dp == event.peer) {
      return Status<>::failure("link endpoints must differ: " + value);
    }
    return {};
  }
  if (find_value(tokens, "dp", value)) {
    if (!parse_index(value, event.dp)) return Status<>::failure("bad dp index: " + value);
    event.all_peers = true;
    return {};
  }
  return Status<>::failure("degrade/restore needs link=a:b or dp=i");
}

}  // namespace

Result<FaultPlan> FaultPlan::parse(const std::string& text) {
  using Fail = Result<FaultPlan>;
  FaultPlan plan;

  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ';', '\n');
  std::istringstream lines(normalized);
  std::string line;
  int line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const Tokens tokens = tokenize(line);
    if (tokens.empty()) continue;

    const std::string where = "fault plan line " + std::to_string(line_no) + ": ";
    std::string value;
    FaultEvent event;
    if (!find_value(tokens, "at", value) || !parse_time(value, event.at)) {
      return Fail::failure(where + "missing or bad at=<time>");
    }
    // The verb is the first token that is not a key=value pair.
    std::string verb;
    for (const std::string& token : tokens) {
      if (token.find('=') == std::string::npos) {
        verb = token;
        break;
      }
    }

    if (verb == "crash" || verb == "restart") {
      if (!find_value(tokens, "dp", value) || !parse_index(value, event.dp)) {
        return Fail::failure(where + verb + " needs dp=<index>");
      }
      event.kind = verb == "crash" ? FaultKind::kDpCrash : FaultKind::kDpRestart;
    } else if (verb == "partition") {
      if (!find_value(tokens, "islands", value)) {
        return Fail::failure(where + "partition needs islands=i,..|j,..");
      }
      std::istringstream groups(value);
      std::string group;
      while (std::getline(groups, group, '|')) {
        std::vector<std::size_t> island;
        if (!parse_index_list(group, island)) {
          return Fail::failure(where + "bad island list: " + group);
        }
        event.islands.push_back(std::move(island));
      }
      if (event.islands.size() < 2) {
        return Fail::failure(where + "partition needs at least two islands");
      }
      if (find_value(tokens, "clients", value)) {
        if (value != "split") {
          return Fail::failure(where + "partition clients= only accepts 'split'");
        }
        event.split_clients = true;
      }
      event.kind = FaultKind::kPartition;
    } else if (verb == "heal") {
      event.kind = FaultKind::kHeal;
    } else if (verb == "oneway" || verb == "healoneway") {
      if (!find_value(tokens, "from", value) || !parse_index(value, event.dp)) {
        return Fail::failure(where + verb + " needs from=<index>");
      }
      if (find_value(tokens, "to", value)) {
        if (!parse_index(value, event.peer)) {
          return Fail::failure(where + "bad to index: " + value);
        }
        if (event.dp == event.peer) {
          return Fail::failure(where + "oneway endpoints must differ");
        }
      } else {
        event.all_peers = true;
      }
      event.kind = verb == "oneway" ? FaultKind::kOneWayPartition
                                    : FaultKind::kOneWayHeal;
    } else if (verb == "corrupt") {
      if (!find_value(tokens, "rate", value) ||
          !parse_double(value, event.corrupt_rate) || event.corrupt_rate < 0.0 ||
          event.corrupt_rate > 1.0) {
        return Fail::failure(where + "corrupt needs rate=<p> in [0, 1]");
      }
      event.kind = FaultKind::kCorrupt;
    } else if (verb == "join") {
      event.kind = FaultKind::kDpJoin;
    } else if (verb == "leave") {
      if (!find_value(tokens, "dp", value) || !parse_index(value, event.dp)) {
        return Fail::failure(where + "leave needs dp=<index>");
      }
      event.kind = FaultKind::kDpLeave;
    } else if (verb == "disktorn" || verb == "diskrot" ||
               verb == "diskrestore") {
      if (!find_value(tokens, "dp", value) || !parse_index(value, event.dp)) {
        return Fail::failure(where + verb + " needs dp=<index>");
      }
      event.kind = verb == "disktorn"  ? FaultKind::kDiskTorn
                   : verb == "diskrot" ? FaultKind::kDiskBitRot
                                       : FaultKind::kDiskRestore;
    } else if (verb == "diskstall") {
      if (!find_value(tokens, "dp", value) || !parse_index(value, event.dp)) {
        return Fail::failure(where + "diskstall needs dp=<index>");
      }
      event.latency_factor = 8.0;
      if (find_value(tokens, "factor", value) &&
          !parse_double(value, event.latency_factor)) {
        return Fail::failure(where + "bad stall factor: " + value);
      }
      if (event.latency_factor < 1.0) {
        return Fail::failure(where + "stall factor must be >= 1");
      }
      event.kind = FaultKind::kDiskStall;
    } else if (verb == "degrade" || verb == "restore") {
      if (const Status<> target = parse_link_target(tokens, event); !target.ok()) {
        return Fail::failure(where + target.error());
      }
      if (verb == "degrade") {
        if (find_value(tokens, "latency", value) &&
            !parse_double(value, event.latency_factor)) {
          return Fail::failure(where + "bad latency factor: " + value);
        }
        if (find_value(tokens, "loss", value) && !parse_double(value, event.extra_loss)) {
          return Fail::failure(where + "bad loss rate: " + value);
        }
        if (event.latency_factor < 1.0 || event.extra_loss < 0.0 ||
            event.extra_loss > 1.0) {
          return Fail::failure(where + "latency must be >= 1, loss in [0, 1]");
        }
        event.kind = FaultKind::kLinkDegrade;
      } else {
        event.kind = FaultKind::kLinkRestore;
      }
    } else {
      return Fail::failure(where + "unknown fault verb: " +
                           (verb.empty() ? "(none)" : verb));
    }
    plan.add(std::move(event));
  }
  return plan;
}

FaultPlan FaultPlan::random(std::uint64_t seed, const RandomFaultOptions& options) {
  FaultPlan plan;
  const double horizon_s = options.horizon.to_seconds();
  const double lo = horizon_s * 0.1;
  const double hi = horizon_s * 0.9;
  if (options.n_dps == 0 || hi <= lo) return plan;

  std::vector<int> kinds{0};
  if (options.n_dps >= 2) kinds.insert(kinds.end(), {1, 2});
  if (options.allow_joins) kinds.push_back(3);
  if (options.allow_leaves && options.n_dps >= 2) kinds.push_back(4);
  if (options.allow_oneway_partitions && options.n_dps >= 2) kinds.push_back(5);
  if (options.allow_corruption) kinds.push_back(6);

  Rng rng(seed);
  // Every fault is a matched begin/end pair tracked as a span, so episodes
  // of the same kind never overlap in a way their undo can't express
  // (heal removes ALL partitions; a restore undoes that DP's override).
  struct Span {
    std::size_t dp;
    double start;
    double end;
  };
  std::vector<Span> down, degraded;
  std::vector<std::pair<double, double>> partitioned, corrupting;
  auto overlaps = [](double s, double e, double s2, double e2) {
    return s < e2 && s2 < e;
  };

  for (std::size_t ep = 0; ep < options.episodes; ++ep) {
    const int kind = kinds[rng.uniform_index(kinds.size())];
    const double start = rng.uniform(lo, lo + (hi - lo) * 0.75);
    const double duration =
        rng.uniform(horizon_s * 0.05, horizon_s * 0.25);
    const double end = std::min(hi, start + duration);
    if (end <= start) continue;

    switch (kind) {
      case 0: {  // crash + restart
        std::vector<std::size_t> candidates;
        for (std::size_t d = 0; d < options.n_dps; ++d) {
          bool busy = false;
          std::size_t concurrent = 0;
          for (const Span& s : down) {
            if (!overlaps(start, end, s.start, s.end)) continue;
            if (s.dp == d) busy = true;
            ++concurrent;
          }
          // A crash window may cover at most n_dps - 1 decision points at
          // once.
          if (busy || concurrent + 1 >= options.n_dps) continue;
          candidates.push_back(d);
        }
        if (candidates.empty()) break;
        const std::size_t dp = candidates[rng.uniform_index(candidates.size())];
        // Disk riders (opt-in: with allow_disk_faults off this arm draws no
        // extra randomness, so existing seeds replay byte for byte). A torn
        // tail lands just before the crash — same instant, inserted first,
        // so it chops frames the crash would otherwise have preserved; bit
        // rot strikes while the point is down; a stall brackets the
        // recovery replay.
        std::size_t disk_variant = 3;  // none
        if (options.allow_disk_faults) disk_variant = rng.uniform_index(3);
        const Time at = Time::from_seconds(start);
        if (disk_variant == 0) {
          plan.add({.at = at, .kind = FaultKind::kDiskTorn, .dp = dp});
        }
        plan.add({.at = at, .kind = FaultKind::kDpCrash, .dp = dp});
        if (disk_variant == 1) {
          plan.add({.at = Time::from_seconds((start + end) / 2),
                    .kind = FaultKind::kDiskBitRot,
                    .dp = dp});
        } else if (disk_variant == 2) {
          plan.add({.at = at,
                    .kind = FaultKind::kDiskStall,
                    .dp = dp,
                    .latency_factor = rng.uniform(2.0, 10.0)});
          plan.add({.at = Time::from_seconds(end + 1.0),
                    .kind = FaultKind::kDiskRestore,
                    .dp = dp});
        }
        plan.add({.at = Time::from_seconds(end),
                  .kind = FaultKind::kDpRestart,
                  .dp = dp});
        down.push_back({dp, start, end});
        break;
      }
      case 1: {  // partition into two islands + heal
        bool clash = false;
        for (const auto& [s, e] : partitioned) {
          if (overlaps(start, end, s, e)) clash = true;
        }
        if (clash) break;
        std::vector<std::size_t> order(options.n_dps);
        for (std::size_t d = 0; d < options.n_dps; ++d) order[d] = d;
        for (std::size_t d = options.n_dps - 1; d > 0; --d) {
          std::swap(order[d], order[rng.uniform_index(d + 1)]);
        }
        const std::size_t cut = 1 + rng.uniform_index(options.n_dps - 1);
        std::vector<std::vector<std::size_t>> islands(2);
        islands[0].assign(order.begin(), order.begin() + std::ptrdiff_t(cut));
        islands[1].assign(order.begin() + std::ptrdiff_t(cut), order.end());
        plan.add({.at = Time::from_seconds(start),
                  .kind = FaultKind::kPartition,
                  .split_clients = options.split_clients_in_partitions,
                  .islands = std::move(islands)});
        plan.add({.at = Time::from_seconds(end), .kind = FaultKind::kHeal});
        partitioned.emplace_back(start, end);
        break;
      }
      case 2: {  // degrade every link of one DP + restore
        std::vector<std::size_t> candidates;
        for (std::size_t d = 0; d < options.n_dps; ++d) {
          bool busy = false;
          for (const Span& s : degraded) {
            if (s.dp == d && overlaps(start, end, s.start, s.end)) busy = true;
          }
          if (!busy) candidates.push_back(d);
        }
        if (candidates.empty()) break;
        const std::size_t dp = candidates[rng.uniform_index(candidates.size())];
        const double latency_factor = rng.uniform(2.0, 8.0);
        const double extra_loss = rng.uniform(0.0, 0.3);
        plan.add({.at = Time::from_seconds(start),
                  .kind = FaultKind::kLinkDegrade,
                  .dp = dp,
                  .all_peers = true,
                  .latency_factor = latency_factor,
                  .extra_loss = extra_loss});
        plan.add({.at = Time::from_seconds(end),
                  .kind = FaultKind::kLinkRestore,
                  .dp = dp,
                  .all_peers = true});
        degraded.push_back({dp, start, end});
        break;
      }
      case 3: {  // join: a fresh decision point bootstraps mid-run
        plan.add({.at = Time::from_seconds(start), .kind = FaultKind::kDpJoin});
        break;
      }
      case 4: {  // leave: drain an initial DP permanently
        // A left DP is down for the rest of the horizon: it must not be
        // crashed later and still counts as down for later crashes and
        // leaves, so its down-span runs to the horizon.
        std::vector<std::size_t> candidates;
        for (std::size_t d = 0; d < options.n_dps; ++d) {
          bool busy = false;
          std::size_t concurrent = 0;
          for (const Span& s : down) {
            if (!overlaps(start, horizon_s, s.start, s.end)) continue;
            if (s.dp == d) busy = true;
            ++concurrent;
          }
          if (busy || concurrent + 1 >= options.n_dps) continue;
          candidates.push_back(d);
        }
        if (candidates.empty()) break;
        const std::size_t dp = candidates[rng.uniform_index(candidates.size())];
        plan.add({.at = Time::from_seconds(start),
                  .kind = FaultKind::kDpLeave,
                  .dp = dp});
        down.push_back({dp, start, horizon_s});
        break;
      }
      case 5: {  // one-way partition + matched heal
        // Shares the partition overlap list: a kHeal from an island
        // episode clears directed blocks too, so overlapping the two
        // partition flavors would let one episode truncate the other.
        bool clash = false;
        for (const auto& [s, e] : partitioned) {
          if (overlaps(start, end, s, e)) clash = true;
        }
        if (clash) break;
        const std::size_t from = rng.uniform_index(options.n_dps);
        std::size_t to = rng.uniform_index(options.n_dps - 1);
        if (to >= from) ++to;
        plan.add({.at = Time::from_seconds(start),
                  .kind = FaultKind::kOneWayPartition,
                  .dp = from,
                  .peer = to});
        plan.add({.at = Time::from_seconds(end),
                  .kind = FaultKind::kOneWayHeal,
                  .dp = from,
                  .peer = to});
        partitioned.emplace_back(start, end);
        break;
      }
      case 6: {  // bit-flip corruption burst + matched stop
        bool clash = false;
        for (const auto& [s, e] : corrupting) {
          if (overlaps(start, end, s, e)) clash = true;
        }
        if (clash) break;
        plan.add({.at = Time::from_seconds(start),
                  .kind = FaultKind::kCorrupt,
                  .corrupt_rate = rng.uniform(0.02, 0.15)});
        plan.add({.at = Time::from_seconds(end), .kind = FaultKind::kCorrupt});
        corrupting.emplace_back(start, end);
        break;
      }
    }
  }
  return plan;
}

void FaultPlan::add(FaultEvent event) {
  // Keep sorted by time with stable insertion order so `arm` schedules
  // same-instant events in the order the plan listed them.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event.at,
      [](Time at, const FaultEvent& e) { return at < e.at; });
  events_.insert(pos, std::move(event));
}

std::size_t max_dp_index(const FaultEvent& e) {
  std::size_t max_index = 0;
  switch (e.kind) {
    case FaultKind::kDpCrash:
    case FaultKind::kDpRestart:
    case FaultKind::kDpLeave:
    case FaultKind::kDiskTorn:
    case FaultKind::kDiskBitRot:
    case FaultKind::kDiskStall:
    case FaultKind::kDiskRestore:
      max_index = e.dp;
      break;
    case FaultKind::kLinkDegrade:
    case FaultKind::kLinkRestore:
    case FaultKind::kOneWayPartition:
    case FaultKind::kOneWayHeal:
      max_index = e.all_peers ? e.dp : std::max(e.dp, e.peer);
      break;
    case FaultKind::kPartition:
      for (const auto& island : e.islands)
        for (const std::size_t dp : island) max_index = std::max(max_index, dp);
      break;
    case FaultKind::kHeal:
    case FaultKind::kDpJoin:
    case FaultKind::kCorrupt:
      break;
  }
  return max_index;
}

std::size_t FaultPlan::join_count() const {
  std::size_t joins = 0;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kDpJoin) ++joins;
  }
  return joins;
}

void FaultPlan::arm(Simulation& sim, std::function<void(const FaultEvent&)> apply) const {
  for (const FaultEvent& event : events_) {
    sim.schedule_at(event.at, [event, apply] { apply(event); });
  }
}

std::string describe(const FaultEvent& e) {
  std::ostringstream os;
  os << "t=" << e.at.to_seconds() << "s ";
  switch (e.kind) {
    case FaultKind::kDpCrash:
      os << "crash dp" << e.dp;
      break;
    case FaultKind::kDpRestart:
      os << "restart dp" << e.dp;
      break;
    case FaultKind::kPartition: {
      os << "partition ";
      for (std::size_t i = 0; i < e.islands.size(); ++i) {
        if (i) os << " | ";
        for (std::size_t j = 0; j < e.islands[i].size(); ++j) {
          if (j) os << ",";
          os << "dp" << e.islands[i][j];
        }
      }
      if (e.split_clients) os << " (clients split)";
      break;
    }
    case FaultKind::kHeal:
      os << "heal";
      break;
    case FaultKind::kLinkDegrade:
      if (e.all_peers) os << "degrade dp" << e.dp << " all links";
      else os << "degrade link dp" << e.dp << ":dp" << e.peer;
      os << " latency x" << e.latency_factor << " +loss " << e.extra_loss;
      break;
    case FaultKind::kLinkRestore:
      if (e.all_peers) os << "restore dp" << e.dp << " all links";
      else os << "restore link dp" << e.dp << ":dp" << e.peer;
      break;
    case FaultKind::kDpJoin:
      os << "join";
      break;
    case FaultKind::kDpLeave:
      os << "leave dp" << e.dp;
      break;
    case FaultKind::kOneWayPartition:
      os << "oneway dp" << e.dp << " -> ";
      if (e.all_peers) os << "all";
      else os << "dp" << e.peer;
      break;
    case FaultKind::kOneWayHeal:
      os << "heal oneway dp" << e.dp << " -> ";
      if (e.all_peers) os << "all";
      else os << "dp" << e.peer;
      break;
    case FaultKind::kCorrupt:
      if (e.corrupt_rate > 0.0) os << "corrupt rate " << e.corrupt_rate;
      else os << "corrupt off";
      break;
    case FaultKind::kDiskTorn:
      os << "disk torn tail dp" << e.dp;
      break;
    case FaultKind::kDiskBitRot:
      os << "disk bit rot dp" << e.dp;
      break;
    case FaultKind::kDiskStall:
      os << "disk stall dp" << e.dp << " x" << e.latency_factor;
      break;
    case FaultKind::kDiskRestore:
      os << "disk restore dp" << e.dp;
      break;
  }
  return os.str();
}

const char* trace_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDpCrash: return "fault.crash";
    case FaultKind::kDpRestart: return "fault.restart";
    case FaultKind::kPartition: return "fault.partition";
    case FaultKind::kHeal: return "fault.heal";
    case FaultKind::kLinkDegrade: return "fault.link_degrade";
    case FaultKind::kLinkRestore: return "fault.link_restore";
    case FaultKind::kDpJoin: return "fault.join";
    case FaultKind::kDpLeave: return "fault.leave";
    case FaultKind::kOneWayPartition: return "fault.oneway";
    case FaultKind::kOneWayHeal: return "fault.oneway_heal";
    case FaultKind::kCorrupt: return "fault.corrupt";
    case FaultKind::kDiskTorn: return "fault.disk_torn";
    case FaultKind::kDiskBitRot: return "fault.disk_rot";
    case FaultKind::kDiskStall: return "fault.disk_stall";
    case FaultKind::kDiskRestore: return "fault.disk_restore";
  }
  return "?";
}

std::string FaultPlan::describe() const {
  std::string out;
  for (const FaultEvent& e : events_) out += sim::describe(e) + "\n";
  return out;
}

}  // namespace digruber::sim
