#include "digruber/overlay/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "digruber/common/rng.hpp"

namespace digruber::overlay {
namespace {

/// Sorted live roster (self + peers) every strategy derives structure
/// from. Peers arrive sorted by DpId; self is spliced in at its rank so
/// all points agree on the array and therefore on the derived topology.
struct Roster {
  std::vector<Member> members;
  std::size_t self_rank = 0;

  static Roster build(const View& view, NodeId self_node) {
    Roster r;
    r.members.reserve(view.peers.size() + 1);
    bool placed = false;
    for (const Member& peer : view.peers) {
      if (!placed && view.self < peer.dp) {
        r.self_rank = r.members.size();
        r.members.push_back({view.self, self_node});
        placed = true;
      }
      r.members.push_back(peer);
    }
    if (!placed) {
      r.self_rank = r.members.size();
      r.members.push_back({view.self, self_node});
    }
    return r;
  }
};

class FullMesh final : public Strategy {
 public:
  [[nodiscard]] Kind kind() const override { return Kind::kMesh; }
  bool rebuild(const View&) override { return false; }
  void select(std::uint64_t, const std::vector<NodeId>& candidates,
              std::vector<NodeId>& out) override {
    out = candidates;
  }
  [[nodiscard]] std::uint32_t ttl() const override { return 0; }
};

/// Heap-shaped degree-k tree over the sorted live roster: rank i's parent
/// is (i-1)/k, children are k*i+1 .. k*i+k. Rebuilding from the live view
/// is the repair rule — when an interior node dies, the roster compacts
/// and every survivor re-derives the same smaller tree.
class SpanningTree final : public Strategy {
 public:
  explicit SpanningTree(std::uint32_t degree, DpId self)
      : degree_(std::max<std::uint32_t>(1, degree)), self_(self) {}

  [[nodiscard]] Kind kind() const override { return Kind::kTree; }

  bool rebuild(const View& view) override {
    const Roster roster = Roster::build(view, NodeId(0));
    std::vector<NodeId> targets;
    std::vector<DpId> watch;
    const std::size_t n = roster.members.size();
    const std::size_t i = roster.self_rank;
    if (i > 0) {
      targets.push_back(roster.members[(i - 1) / degree_].node);
      watch.push_back(roster.members[(i - 1) / degree_].dp);
    }
    for (std::size_t c = i * degree_ + 1; c <= i * degree_ + degree_ && c < n;
         ++c) {
      targets.push_back(roster.members[c].node);
      watch.push_back(roster.members[c].dp);
    }
    std::sort(watch.begin(), watch.end());
    // Diameter of the tree (leaf -> root -> leaf = 2*depth) bounds a
    // record's relay distance; depths are exact per record (they ride the
    // hops extension), so the TTL only needs repair slack on top: during a
    // churn transient points hold divergent rosters and a record may take
    // a detour through the old and new structure. The TTL is a loop
    // backstop — dedup already terminates the flood.
    std::size_t depth = 0;
    if (n > 1) {
      std::size_t j = n - 1;
      while (j > 0) {
        j = (j - 1) / degree_;
        ++depth;
      }
    }
    ttl_ = static_cast<std::uint32_t>(2 * depth + 4);
    if (targets == targets_ && watch == watch_) return false;
    targets_ = std::move(targets);
    watch_ = std::move(watch);
    return true;
  }

  void select(std::uint64_t, const std::vector<NodeId>&,
              std::vector<NodeId>& out) override {
    out = targets_;
  }

  [[nodiscard]] std::uint32_t ttl() const override { return ttl_; }

  // Tree edges push both ways every round: watch exactly parent+children.
  [[nodiscard]] const std::vector<DpId>* watch_peers() const override {
    return &watch_;
  }

 private:
  std::uint32_t degree_;
  DpId self_;
  std::vector<NodeId> targets_;
  std::vector<DpId> watch_;
  std::uint32_t ttl_ = 2;
};

/// Epidemic push: each round samples `fanout` distinct peers from the
/// candidate list via a partial Fisher–Yates pass over a private
/// deterministic stream (base seed mixed with the owner's id), so
/// same-seed scenario runs replay bit-identically without touching the
/// scenario rng's fork order.
class GossipFanout final : public Strategy {
 public:
  GossipFanout(std::uint32_t fanout, std::uint64_t seed, DpId self)
      : fanout_(std::max<std::uint32_t>(1, fanout)),
        rng_(seed ^ (0x9e3779b97f4a7c15ULL * (self.value() + 1))) {}

  [[nodiscard]] Kind kind() const override { return Kind::kGossip; }

  bool rebuild(const View& view) override {
    // Gossip has no derived structure; track roster size for the TTL.
    const std::size_t n = view.peers.size() + 1;
    std::uint32_t ttl = 2;
    // Rumor spreading covers n nodes in O(log n) rounds w.h.p., but a
    // given copy's relay path has a heavier tail and dedup means the
    // first (possibly long-path) arrival is the only one relayed — so
    // triple the log bound rather than double it. The TTL suppresses
    // loops, not legitimate spread.
    while ((1ULL << ttl) < n) ++ttl;
    ttl_ = 3 * ttl + 2;
    // A given peer pushes here every (n-1)/fanout rounds in expectation;
    // doubling that keeps the false-suspicion probability negligible
    // (silence over 2m expected-contact rounds has probability
    // (1 - k/(n-1))^(2m·(n-1)/k), well under the detector thresholds).
    stretch_ = 2.0 * std::max(1.0, double(n - 1) / double(fanout_));
    return false;
  }

  void select(std::uint64_t, const std::vector<NodeId>& candidates,
              std::vector<NodeId>& out) override {
    const std::size_t n = candidates.size();
    const std::size_t k = std::min<std::size_t>(fanout_, n);
    scratch_.resize(n);
    std::iota(scratch_.begin(), scratch_.end(), std::size_t{0});
    out.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + rng_.uniform_index(n - i);
      std::swap(scratch_[i], scratch_[j]);
      out.push_back(candidates[scratch_[i]]);
    }
  }

  [[nodiscard]] std::uint32_t ttl() const override { return ttl_; }

  // Contacts are random: everyone is watched, on a stretched clock.
  [[nodiscard]] double watch_stretch() const override { return stretch_; }

 private:
  std::uint32_t fanout_;
  Rng rng_;
  std::vector<std::size_t> scratch_;
  std::uint32_t ttl_ = 6;
  double stretch_ = 1.0;
};

/// Two-layer hierarchy: the S lowest live ids are super-peers; leaves are
/// assigned round-robin by rank and exchange only with their super-peer,
/// while super-peers full-mesh among themselves and push down to their
/// leaves. Repair is positional: when a super-peer dies the roster
/// compacts and the next-lowest id is promoted everywhere at once.
class SuperPeer final : public Strategy {
 public:
  SuperPeer(std::uint32_t superpeers, DpId self)
      : superpeers_(superpeers), self_(self) {}

  [[nodiscard]] Kind kind() const override { return Kind::kSuperPeer; }

  bool rebuild(const View& view) override {
    const Roster roster = Roster::build(view, NodeId(0));
    const std::size_t n = roster.members.size();
    const std::size_t s = super_count(n, superpeers_);
    std::vector<NodeId> targets;
    std::vector<DpId> watch;
    const std::size_t i = roster.self_rank;
    if (i < s) {
      for (std::size_t j = 0; j < s; ++j)
        if (j != i) {
          targets.push_back(roster.members[j].node);
          watch.push_back(roster.members[j].dp);
        }
      for (std::size_t j = s; j < n; ++j)
        if ((j - s) % s == i) {
          targets.push_back(roster.members[j].node);
          watch.push_back(roster.members[j].dp);
        }
    } else if (s > 0) {
      targets.push_back(roster.members[(i - s) % s].node);
      watch.push_back(roster.members[(i - s) % s].dp);
    }
    std::sort(watch.begin(), watch.end());
    if (targets == targets_ && watch == watch_) return false;
    targets_ = std::move(targets);
    watch_ = std::move(watch);
    return true;
  }

  void select(std::uint64_t, const std::vector<NodeId>&,
              std::vector<NodeId>& out) override {
    out = targets_;
  }

  // leaf -> super -> other supers -> their leaves is 3 hops; depths are
  // exact per record, so the rest is churn-transient detour slack.
  [[nodiscard]] std::uint32_t ttl() const override { return 6; }

  // Both layers are symmetric per round: a leaf watches its super-peer,
  // a super-peer watches its peer supers and assigned leaves.
  [[nodiscard]] const std::vector<DpId>* watch_peers() const override {
    return &watch_;
  }

  static std::size_t super_count(std::size_t n, std::uint32_t configured) {
    if (n == 0) return 0;
    std::size_t s = configured != 0
                        ? configured
                        : static_cast<std::size_t>(
                              std::ceil(std::sqrt(static_cast<double>(n))));
    return std::min(std::max<std::size_t>(1, s), n);
  }

 private:
  std::uint32_t superpeers_;
  DpId self_;
  std::vector<NodeId> targets_;
  std::vector<DpId> watch_;
};

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kMesh: return "mesh";
    case Kind::kTree: return "tree";
    case Kind::kGossip: return "gossip";
    case Kind::kSuperPeer: return "superpeer";
  }
  return "?";
}

std::unique_ptr<Strategy> make_strategy(const Options& options, DpId self) {
  switch (options.kind) {
    case Kind::kMesh: return std::make_unique<FullMesh>();
    case Kind::kTree: return std::make_unique<SpanningTree>(options.tree_degree, self);
    case Kind::kGossip:
      return std::make_unique<GossipFanout>(options.gossip_fanout, options.seed, self);
    case Kind::kSuperPeer: return std::make_unique<SuperPeer>(options.superpeers, self);
  }
  return std::make_unique<FullMesh>();
}

double messages_per_round(std::size_t n, const Options& options) {
  if (n < 2) return 0.0;
  const double dn = static_cast<double>(n);
  switch (options.kind) {
    case Kind::kMesh: return dn * (dn - 1.0);
    case Kind::kTree: return 2.0 * (dn - 1.0);
    case Kind::kGossip: {
      const double k = std::min<double>(std::max<std::uint32_t>(1, options.gossip_fanout),
                                        dn - 1.0);
      return dn * k;
    }
    case Kind::kSuperPeer: {
      const double s =
          static_cast<double>(SuperPeer::super_count(n, options.superpeers));
      const double leaves = dn - s;
      return 2.0 * leaves + s * (s - 1.0);
    }
  }
  return dn * (dn - 1.0);
}

}  // namespace digruber::overlay
