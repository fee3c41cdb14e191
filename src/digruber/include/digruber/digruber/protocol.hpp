#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digruber/digruber/membership.hpp"
#include "digruber/grid/job.hpp"
#include "digruber/gruber/view.hpp"
#include "digruber/net/wire/archive.hpp"
#include "digruber/net/wire/stats.hpp"

namespace digruber::digruber {

/// RPC method ids for the DI-GRUBER wire protocol.
enum Method : std::uint16_t {
  /// Client -> decision point: fetch USLA-filtered site loads for a job.
  kGetSiteLoads = 1,
  /// Client -> decision point: report the site the client-side selector
  /// chose (the second round trip of a brokering query).
  kReportSelection = 2,
  /// Decision point -> decision point: periodic state exchange (one-way).
  kExchange = 3,
  /// The trivial WS operation used by the Figure-1 baseline.
  kCreateInstance = 4,
  /// Decision point -> infrastructure monitor: saturation signal (one-way).
  kSaturation = 5,
  // Ids 6 and 7 are retired (the catch-up and join-snapshot methods before
  // kPull served both); do not reuse them.
  /// Departing decision point -> peers: graceful leave announcement
  /// (one-way), so the mesh drops it without waiting for suspicion.
  kLeave = 8,
  /// Decision point -> peer: anti-entropy pull of the peer's active
  /// dispatch records in a VO range (see PullRequest).
  kPull = 9,
};

/// Traffic class of each protocol method, for the wire layer's per-category
/// bytes-on-wire and encode-count telemetry (the wire layer itself knows
/// nothing about DI-GRUBER method ids).
constexpr net::wire::MsgCategory method_category(std::uint16_t method) {
  switch (method) {
    case kGetSiteLoads:
    case kReportSelection:
    case kCreateInstance:
      return net::wire::MsgCategory::kQuery;
    case kExchange:
      return net::wire::MsgCategory::kStateExchange;
    case kSaturation:
    case kLeave:
    case kPull:
      return net::wire::MsgCategory::kControl;
    default:
      return net::wire::MsgCategory::kOther;
  }
}

/// Install `method_category` as the wire layer's categorizer. Idempotent;
/// called from every protocol actor's constructor so any run that touches
/// DI-GRUBER traffic gets classified counters.
inline void install_wire_categorizer() {
  net::wire::set_method_categorizer(&method_category);
}

struct GetSiteLoadsRequest {
  JobId job;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  /// Extension tags (see net::wire::Ext). Tag 2, a query-side bid no
  /// decision point read, is retired.
  enum Tag : std::uint8_t { kEpoch = 1 };
  /// A membership-aware client's current membership epoch. A decision
  /// point whose view is newer attaches its MembershipUpdate to the reply.
  std::optional<std::uint64_t> membership_epoch;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & job & vo & group & user & cpus;
    ar.extensions(ext(kEpoch, membership_epoch));
  }
};

/// Per-decision-point load hint piggybacked on existing traffic (state
/// exchange and query replies) so peers and clients can do load-aware DP
/// selection without extra probe RPCs.
struct DpLoadHint {
  std::uint64_t node = 0;       // RPC address of the advertising DP
  std::int32_t queue_depth = 0;
  double utilization = 0.0;     // busy workers / pool size, EWMA-free sample
  double est_wait_s = 0.0;      // predicted admission-queue sojourn

  template <class Archive>
  void serialize(Archive& ar) {
    ar & node & queue_depth & utilization & est_wait_s;
  }
};

/// Typed degraded-mode hint (partition tolerance): the serving DP's own
/// assessment of how stale its view is. `level` 1 = some site state is
/// stale and believed-free capacity is being discounted; 2 = quorum lost
/// (a majority of peers unreachable past the staleness threshold) and the
/// DP is refusing query admission with kNackDegraded. Clients use the hint
/// to reroute without treating the DP as dead.
struct DegradedHint {
  std::uint8_t level = 0;
  std::uint32_t stale_sites = 0;
  std::uint32_t stale_peers = 0;
  std::int64_t staleness_us = 0;  // worst observed view staleness

  template <class Archive>
  void serialize(Archive& ar) {
    ar & level & stale_sites & stale_peers & staleness_us;
  }
};

struct GetSiteLoadsReply {
  std::vector<gruber::SiteLoad> candidates;
  sim::Time as_of;
  enum Tag : std::uint8_t {
    kLoads = 1,
    kMembership = 2,
    kDigest = 3,
    kDegraded = 4,
    kPrices = 5,
  };
  /// The serving DP's own hint plus what it has heard from peers, for
  /// power-of-two-choices failover on the client.
  std::optional<std::vector<DpLoadHint>> dp_loads;
  /// The DP's membership view, for a client that reported a stale epoch.
  std::optional<MembershipUpdate> membership;
  /// Partition tolerance: the DP's settled state digest, so any observer
  /// can detect divergence between decision points from query traffic.
  std::optional<gruber::ViewDigest> digest;
  /// Partition tolerance: the DP's degraded-mode hint, level >= 1.
  std::optional<DegradedHint> degraded;
  /// Economy: per-DP price quotes aligned index-wise with `dp_loads`, so
  /// market-placement clients can minimize cost over the hint set p2c uses
  /// (0 = no quote heard yet).
  std::optional<std::vector<double>> dp_prices;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & candidates & as_of;
    ar.extensions(ext(kLoads, dp_loads), ext(kMembership, membership),
                  ext(kDigest, digest), ext(kDegraded, degraded),
                  ext(kPrices, dp_prices));
  }
};

/// A market-placement job's bid: a spend ceiling and a completion deadline.
struct Bid {
  double budget = 0.0;
  double deadline_s = 0.0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & budget & deadline_s;
  }
};

/// A durable client request id, stable across retries of one placement.
struct RequestId {
  std::uint64_t client = 0;
  std::uint64_t seq = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & client & seq;
  }
};

struct ReportSelectionRequest {
  JobId job;
  SiteId site;
  VoId vo;
  GroupId group;
  UserId user;
  std::int32_t cpus = 1;
  sim::Duration est_runtime;
  enum Tag : std::uint8_t { kBid = 1, kRequestId = 2 };
  /// Market placement: the bid the client placed this job under, so the
  /// serving DP can account priced selections.
  std::optional<Bid> bid;
  /// Exactly-once dispatch: lets the serving DP collapse a retry to the
  /// original decision.
  std::optional<RequestId> request_id;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & job & site & vo & group & user & cpus & est_runtime;
    ar.extensions(ext(kBid, bid), ext(kRequestId, request_id));
  }
};

struct Ack {
  bool ok = true;
  enum Tag : std::uint8_t { kOriginalSite = 1 };
  /// Exactly-once dispatch: present when the dedup window collapsed a
  /// retried report, carrying the placement the original attempt recorded.
  std::optional<SiteId> original_site;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & ok;
    ar.extensions(ext(kOriginalSite, original_site));
  }
};

/// Relay depths of an exchange frame's records under a sparse overlay.
/// Per record, because one deep record must not burn the relay budget of a
/// fresh one riding the same frame.
struct Hops {
  std::uint32_t max = 0;  ///< deepest record on the frame, for telemetry
  /// `depths[i]` = relay hops `dispatches[i]` has already traveled; empty
  /// means all zero.
  std::vector<std::uint32_t> depths;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & max & depths;
  }
};

struct ExchangeMessage {
  DpId from;
  std::uint64_t exchange_round = 0;
  std::vector<gruber::DispatchRecord> dispatches;
  /// Dissemination strategy 1 additionally carries fresh site snapshots.
  std::vector<grid::SiteSnapshot> snapshots;
  enum Tag : std::uint8_t {
    kLoad = 1,
    kMembership = 2,
    kDigest = 3,
    kPrice = 4,
    kHops = 5,
  };
  /// The sender's container-load hint; its node is also the sender's
  /// server address, which receivers key prices and delta pulls by.
  std::optional<DpLoadHint> load;
  /// The sender's membership view, gossiped so join/leave/death verdicts
  /// flood the mesh on the frames it already sends.
  std::optional<MembershipUpdate> membership;
  /// The sender's settled digest, so peers detect divergence on the first
  /// frame that crosses a healed partition.
  std::optional<gruber::ViewDigest> digest;
  /// Economy: the sender's current price quote.
  std::optional<double> price;
  /// Sparse overlays: per-record relay depths, bounded by the strategy TTL.
  std::optional<Hops> hops;

  template <class Archive>
  void serialize(Archive& ar) {
    using net::wire::ext;
    ar & from & exchange_round & dispatches & snapshots;
    ar.extensions(ext(kLoad, load), ext(kMembership, membership),
                  ext(kDigest, digest), ext(kPrice, price), ext(kHops, hops));
  }
};

struct CreateInstanceRequest {
  std::uint64_t nonce = 0;
  std::string payload;  // pad to model realistic SOAP body sizes

  template <class Archive>
  void serialize(Archive& ar) {
    ar & nonce & payload;
  }
};

struct CreateInstanceReply {
  std::uint64_t nonce = 0;
  std::uint64_t instance = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & nonce & instance;
  }
};

/// Departing DP -> peers (one-way): graceful leave. Peers mark the member
/// kLeft immediately instead of waiting out the suspicion thresholds.
struct LeaveAnnouncement {
  DpId from;
  std::uint64_t node = 0;
  std::uint32_t incarnation = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & node & incarnation;
  }
};

/// Why a decision point pulls state from a peer. The reason picks what
/// the reply carries besides the records.
enum class PullReason : std::uint8_t {
  /// Restart or flooding-round gap: every VO in the catalog.
  kCatchUp = 0,
  /// Runtime join: every VO plus the bases, the membership view and the
  /// load hints. Served only by a serving, membership-enabled point.
  kJoin = 1,
  /// Digest mismatch: the diverged VOs, plus the bases when the base
  /// hashes differed.
  kDelta = 2,
};
/// Reasons on the wire are below this; the archive casts the byte
/// unchecked, so a server refuses anything else like an undecodable body.
inline constexpr std::uint8_t kPullReasons = 3;

/// Anti-entropy pull: the active records of the VOs in `vos` (ascending),
/// and the base snapshots when `want_bases`.
struct PullRequest {
  DpId from;
  PullReason reason = PullReason::kCatchUp;
  std::vector<VoId> vos;
  bool want_bases = false;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & reason & vos & want_bases;
  }
};

/// Every field is always encoded; a part the reason did not ask for is
/// empty. `digest` is the server's settled digest at serve time, so the
/// puller can verify convergence at once; only a point that compares
/// digests fills it.
struct PullReply {
  DpId from;
  std::vector<gruber::DispatchRecord> records;
  std::vector<grid::SiteSnapshot> bases;
  gruber::ViewDigest digest;
  MembershipUpdate membership;
  std::vector<DpLoadHint> hints;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & records & bases & digest & membership & hints;
  }
};

struct SaturationSignal {
  DpId from;
  double avg_response_s = 0.0;
  double observed_qps = 0.0;
  std::int32_t queue_depth = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & avg_response_s & observed_qps & queue_depth;
  }
};

}  // namespace digruber::digruber
