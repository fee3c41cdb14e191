#pragma once

#include <iosfwd>
#include <string>

#include "digruber/diperf/diperf.hpp"
#include "digruber/metrics/metrics.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::diperf {

/// Render a figure the way the paper does: the load / response /
/// throughput series (downsampled) followed by the response-time and
/// throughput summary rows.
void render_figure(std::ostream& os, const std::string& title,
                   const Collector& collector, double end_s,
                   double bucket_s = 60.0, std::size_t max_rows = 20);

/// Render the fault-tolerance counter block the resilience bench appends
/// below its figure.
void render_resilience(std::ostream& os, const metrics::ResilienceCounters& counters);

/// Render the overload-control counter block (container shedding + client
/// adaptive-retry accounting). Queue-full drops appear here as typed
/// rejections, distinguishable from network loss in the resilience block.
void render_overload(std::ostream& os, const metrics::OverloadCounters& counters);

/// Render the dynamic-membership counter block (failure-detector verdicts,
/// join/leave protocol traffic, client-side quarantine accounting).
void render_membership(std::ostream& os, const metrics::MembershipCounters& counters);

/// Render the economic-brokering counter block (credit-bank settlement,
/// karma admission verdicts, market-placement routing). Credit amounts
/// are CPU-seconds.
void render_economy(std::ostream& os, const metrics::EconomyCounters& counters);

/// Render the dissemination-overlay counter block (per-round fan-out,
/// observed relay depth, TTL-suppressed relays, churn-driven rebuilds).
/// `strategy` is overlay::kind_name() of the active strategy.
void render_overlay(std::ostream& os, const char* strategy,
                    const metrics::OverlayCounters& counters);

/// Render the per-category bytes-on-wire / encode-count block. With the
/// zero-copy message path, `encodes` counts serializations (one per
/// exchange round, not one per peer); bytes are the frames those encodes
/// produced.
void render_wire(std::ostream& os, const net::wire::WireStats& stats);

/// Render the response-time percentile block (p50/p95/p99 from the
/// HDR-style histogram in MetricValues) for the handled / not-handled /
/// all slices. Kept out of render_figure so the paper-figure benches stay
/// byte-identical with tracing and telemetry disabled.
void render_latency_percentiles(std::ostream& os,
                                const metrics::MetricValues& handled,
                                const metrics::MetricValues& not_handled,
                                const metrics::MetricValues& all);

}  // namespace digruber::diperf
