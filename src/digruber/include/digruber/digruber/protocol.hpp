#pragma once

#include <cstdint>
#include <vector>

#include "digruber/digruber/membership.hpp"
#include "digruber/grid/job.hpp"
#include "digruber/gruber/view.hpp"
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
  /// Optional trailing field (membership-aware clients only): the client's
  /// current membership epoch. A decision point whose view is newer
  /// attaches a MembershipUpdate to the reply. Absent -> legacy bytes.
  bool has_epoch = false;
  std::uint64_t membership_epoch = 0;
  /// Second optional trailing field (market placement): the job's economic
  /// bid — a spend ceiling and a completion deadline. Positional stacking
  /// rule: attaching the bid forces the epoch trailer (epoch 0 is a
  /// harmless no-op on decision points). Absent -> legacy bytes.
  bool has_bid = false;
  double budget = 0.0;
  double deadline_s = 0.0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & job & vo & group & user & cpus;
    if constexpr (Archive::kIsWriter) {
      if (has_epoch) ar & membership_epoch;
      if (has_bid) ar & budget & deadline_s;
    } else {
      if (ar.remaining() > 0) {
        ar & membership_epoch;
        has_epoch = true;
      }
      if (ar.remaining() > 0) {
        ar & budget & deadline_s;
        has_bid = true;
      }
    }
  }
};

/// Per-decision-point load hint piggybacked on existing traffic (state
/// exchange and query replies) so peers and clients can do load-aware DP
/// selection without extra probe RPCs. Always a trailing optional field:
/// senders that do not advertise load emit byte-identical legacy messages.
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
  /// Optional trailing field: the serving DP's own hint plus what it has
  /// heard from peers, for power-of-two-choices failover on the client.
  std::vector<DpLoadHint> dp_loads;
  /// Second optional trailing field: the DP's membership view, attached
  /// only when the requesting client reported a stale epoch. Trailing
  /// fields stack positionally, so a sender attaching the membership
  /// trailer MUST also emit `dp_loads` (membership-enabled DPs always
  /// include at least their own hint).
  bool has_membership = false;
  MembershipUpdate membership;
  /// Third optional trailing field (partition tolerance): the DP's state
  /// digest, so any observer can detect divergence between decision
  /// points from query traffic alone. Attaching it forces the two earlier
  /// trailers (an empty MembershipUpdate is a harmless no-op on apply).
  bool has_digest = false;
  gruber::ViewDigest digest;
  /// Fourth optional trailing field (partition tolerance): degraded-mode
  /// admission hint. Same stacking rule: attaching it forces the digest.
  bool has_degraded = false;
  DegradedHint degraded;
  /// Fifth optional trailing field (economy): per-DP price quotes aligned
  /// index-wise with `dp_loads`, so market-placement clients can minimize
  /// cost over the same hint set p2c uses. Attaching it forces every
  /// earlier trailer (empty digest / level-0 degraded hints are harmless
  /// no-ops on receivers).
  std::vector<double> dp_prices;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & candidates & as_of;
    if constexpr (Archive::kIsWriter) {
      if (!dp_loads.empty()) ar & dp_loads;
      if (has_membership) ar & membership;
      if (has_digest) ar & digest;
      if (has_degraded) ar & degraded;
      if (!dp_prices.empty()) ar & dp_prices;
    } else {
      if (ar.remaining() > 0) ar & dp_loads;
      if (ar.remaining() > 0) {
        ar & membership;
        has_membership = true;
      }
      if (ar.remaining() > 0) {
        ar & digest;
        has_digest = true;
      }
      if (ar.remaining() > 0) {
        ar & degraded;
        has_degraded = true;
      }
      if (ar.remaining() > 0) ar & dp_prices;
    }
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
  /// Optional trailing field (market placement): the bid the client
  /// placed this job under, echoed so the serving DP can account priced
  /// selections. Absent -> legacy bytes.
  bool has_bid = false;
  double budget = 0.0;
  double deadline_s = 0.0;
  /// Optional trailing field (exactly-once dispatch): a durable client
  /// request id, stable across retries of the same placement, letting the
  /// serving DP collapse a retry to the original decision. Stacks after
  /// the bid trailer, so stamping a request id forces the (possibly
  /// all-zero, harmless) bid bytes to keep positional decoding
  /// unambiguous. Absent -> legacy bytes.
  bool has_request_id = false;
  std::uint64_t request_client = 0;
  std::uint64_t request_seq = 0;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & job & site & vo & group & user & cpus & est_runtime;
    if constexpr (Archive::kIsWriter) {
      if (has_bid || has_request_id) ar & budget & deadline_s;
      if (has_request_id) ar & request_client & request_seq;
    } else {
      if (ar.remaining() > 0) {
        ar & budget & deadline_s;
        has_bid = true;
      }
      if (ar.remaining() > 0) {
        ar & request_client & request_seq;
        has_request_id = true;
      }
    }
  }
};

struct Ack {
  bool ok = true;
  /// Optional trailing field (exactly-once dispatch): present when the
  /// dedup window collapsed a retried report — carries the placement the
  /// original attempt recorded, so the retry returns the original
  /// decision instead of a re-allocation. Absent -> legacy bytes.
  bool has_original = false;
  SiteId original_site{};

  template <class Archive>
  void serialize(Archive& ar) {
    ar & ok;
    if constexpr (Archive::kIsWriter) {
      if (has_original) ar & original_site;
    } else {
      if (ar.remaining() > 0) {
        ar & original_site;
        has_original = true;
      }
    }
  }
};

struct ExchangeMessage {
  DpId from;
  std::uint64_t exchange_round = 0;
  std::vector<gruber::DispatchRecord> dispatches;
  /// Dissemination strategy 1 additionally carries fresh site snapshots.
  std::vector<grid::SiteSnapshot> snapshots;
  /// Optional trailing field: sender's container-load hint (set when the
  /// DP advertises load; absent keeps the legacy byte layout).
  bool has_load = false;
  DpLoadHint load;
  /// Second optional trailing field: the sender's membership view,
  /// gossiped so join/leave/death verdicts flood the mesh on the frames
  /// it already sends. Positional stacking rule: a sender attaching the
  /// membership trailer MUST also set `has_load` (membership-enabled DPs
  /// always advertise their own hint).
  bool has_membership = false;
  MembershipUpdate membership;
  /// Third optional trailing field (partition tolerance): the sender's
  /// per-VO state digest, piggybacked so peers detect divergence on the
  /// first frame that crosses a healed partition. Positional stacking
  /// rule again: attaching the digest forces `load` and `membership`
  /// (empty ones are harmless no-ops on the receiver).
  bool has_digest = false;
  gruber::ViewDigest digest;
  /// Fourth optional trailing field (economy): the sender's current price
  /// quote, flooded so every DP can relay the full price picture to its
  /// clients. Positional stacking rule: attaching the price forces the
  /// three earlier trailers. An economy-only sender emits an *empty*
  /// digest — receivers must treat an empty digest as "no digest", not as
  /// divergence (see `ViewDigest` equality).
  bool has_price = false;
  double price = 0.0;
  /// Fifth optional trailing field (overlay): per-record relay depths for
  /// `dispatches` (`hop_depths[i]` = relay hops record i has already
  /// traveled; empty means all zero) plus the batch max in `hops` for
  /// telemetry. Stamped by sparse overlays (tree, gossip, super-peer) so
  /// receivers can bound further relaying of each record by the
  /// strategy's TTL — per record, because one deep record must not burn
  /// the relay budget of a fresh one riding the same frame. Positional
  /// stacking rule: attaching hops forces all four earlier trailers
  /// (empty/neutral payloads are no-ops on the receiver). The mesh
  /// strategy never attaches it, keeping the default wire layout
  /// byte-identical to the pre-overlay format.
  bool has_hops = false;
  std::uint32_t hops = 0;
  std::vector<std::uint32_t> hop_depths;

  template <class Archive>
  void serialize(Archive& ar) {
    ar & from & exchange_round & dispatches & snapshots;
    if constexpr (Archive::kIsWriter) {
      if (has_load) ar & load;
      if (has_membership) ar & membership;
      if (has_digest) ar & digest;
      if (has_price) ar & price;
      if (has_hops) ar & hops & hop_depths;
    } else {
      if (ar.remaining() > 0) {
        ar & load;
        has_load = true;
      }
      if (ar.remaining() > 0) {
        ar & membership;
        has_membership = true;
      }
      if (ar.remaining() > 0) {
        ar & digest;
        has_digest = true;
      }
      if (ar.remaining() > 0) {
        ar & price;
        has_price = true;
      }
      if (ar.remaining() > 0) {
        ar & hops & hop_depths;
        has_hops = true;
      }
    }
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
