// Sim-time ledger of a traced run, derived only from spans the program
// already records:
//   query (client)          issue -> outcome, one trace per query
//   rpc.serve (server)      request arrival -> reply sent: container queue
//                           plus service, the paper's container cost
//   net.send -> net.deliver one packet's WAN transit, paired by
//                           (span, src, dst) in send order
// Each part is clipped to its query's interval; what no serve or transit
// covers is client-side time (selection, backoff, waiting on a timeout).
#include <algorithm>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "perf.hpp"

namespace perf {
namespace {

using dg::trace::Category;
using dg::trace::EventKind;
using dg::trace::TraceEvent;

std::int64_t overlap(std::int64_t a0, std::int64_t a1, std::int64_t b0, std::int64_t b1) {
  return std::max<std::int64_t>(0, std::min(a1, b1) - std::max(a0, b0));
}

struct QuerySpan {
  std::int64_t begin = -1;
  std::int64_t end = -1;
  bool handled = false;
  std::int64_t serve_us = 0;
  std::int64_t wan_us = 0;
};

struct Hop {
  std::uint64_t span = 0;
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::int64_t ts = 0;
  std::uint64_t trace = 0;
  [[nodiscard]] auto key() const { return std::tie(span, src, dst, ts); }
};

}  // namespace

Ledger build_ledger(const dg::trace::Tracer& tracer, dg::sim::Duration timeout) {
  Ledger out;
  std::unordered_map<std::uint64_t, QuerySpan> queries;  // by trace id
  std::vector<Hop> sends, delivers;

  // Rings iterate category-major (client before rpc before net), so every
  // query's interval is known before its serves and hops are clipped.
  for (const auto& [category, actor] : tracer.actors()) {
    dg::trace::Tracer::Filter filter;
    filter.category = category;
    filter.actor = actor;
    const std::vector<TraceEvent> events = tracer.query(filter);
    if (category == Category::kClient) {
      for (const TraceEvent& e : events) {
        if (std::string_view(e.name) != "query") continue;
        QuerySpan& q = queries[e.trace];
        if (e.kind == EventKind::kBegin) {
          q.begin = e.ts.us();
        } else if (e.kind == EventKind::kEnd) {
          q.end = e.ts.us();
          q.handled = e.a0 != 0;
        }
      }
    } else if (category == Category::kRpc) {
      std::unordered_map<std::uint64_t, std::int64_t> open;  // serve span -> begin
      for (const TraceEvent& e : events) {
        if (std::string_view(e.name) != "rpc.serve") continue;
        if (e.kind == EventKind::kBegin) {
          open[e.span] = e.ts.us();
          continue;
        }
        const auto it = open.find(e.span);
        if (it == open.end()) continue;
        const auto q = queries.find(e.trace);
        if (q != queries.end() && q->second.end >= 0) {
          q->second.serve_us +=
              overlap(it->second, e.ts.us(), q->second.begin, q->second.end);
        }
        open.erase(it);
      }
    } else if (category == Category::kNet) {
      for (const TraceEvent& e : events) {
        const std::string_view name(e.name);
        if (name == "net.send") {
          ++out.net.packets;
          out.net.bytes += std::uint64_t(e.a1);
          if (queries.count(e.trace)) {
            sends.push_back({e.span, actor, std::uint64_t(e.a0), e.ts.us(), e.trace});
          }
        } else if (name == "net.deliver") {
          out.net.delivered_bytes += std::uint64_t(e.a1);
          if (queries.count(e.trace)) {
            delivers.push_back({e.span, std::uint64_t(e.a0), actor, e.ts.us(), e.trace});
          }
        } else if (name == "net.drop") {
          ++out.net.drops;
        }
      }
    }
  }

  // Pair the k-th delivery of a (span, src, dst) with its k-th send.
  const auto by_key = [](const Hop& a, const Hop& b) { return a.key() < b.key(); };
  std::sort(sends.begin(), sends.end(), by_key);
  std::sort(delivers.begin(), delivers.end(), by_key);
  const auto same_link = [](const Hop& a, const Hop& b) {
    return a.span == b.span && a.src == b.src && a.dst == b.dst;
  };
  std::size_t s = 0;
  for (std::size_t d = 0; d < delivers.size();) {
    const Hop& first = delivers[d];
    while (s < sends.size() && std::make_tuple(sends[s].span, sends[s].src, sends[s].dst) <
                                   std::make_tuple(first.span, first.src, first.dst)) {
      ++s;
    }
    for (; d < delivers.size() && same_link(delivers[d], first); ++d) {
      if (s >= sends.size() || !same_link(sends[s], first)) continue;
      QuerySpan& q = queries[delivers[d].trace];
      if (q.end >= 0) q.wan_us += overlap(sends[s].ts, delivers[d].ts, q.begin, q.end);
      ++s;
    }
  }

  std::vector<std::int64_t> responses;
  std::int64_t total_us = 0, serve_us = 0, wan_us = 0;
  for (const auto& [trace, q] : queries) {
    if (q.begin < 0 || q.end < 0) continue;
    ++out.query_spans;
    responses.push_back(q.handled ? q.end - q.begin : timeout.us());
    total_us += q.end - q.begin;
    serve_us += q.serve_us;
    wan_us += q.wan_us;
  }
  out.p50_us = percentile(responses, 0.50);
  out.p99_us = percentile(responses, 0.99);
  if (total_us > 0) {
    out.serve_share = double(serve_us) / double(total_us);
    out.wan_share = double(wan_us) / double(total_us);
    out.client_share = double(total_us - serve_us - wan_us) / double(total_us);
  }
  return out;
}

}  // namespace perf
