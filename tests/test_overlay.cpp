#include "digruber/overlay/overlay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <set>
#include <vector>

namespace digruber::overlay {
namespace {

View view_for(std::size_t n, DpId self, std::size_t skip = SIZE_MAX) {
  View view;
  view.self = self;
  for (std::size_t i = 0; i < n; ++i) {
    if (DpId(i) == self || i == skip) continue;
    view.peers.push_back({DpId(i), NodeId(1000 + i)});
  }
  return view;
}

/// Build every point's push set from its own copy of the strategy and
/// check the union graph connects all n points (flooding can reach
/// everyone). `skip` simulates a dead member absent from every view.
void expect_connected(Kind kind, std::size_t n, std::size_t skip = SIZE_MAX) {
  Options options;
  options.kind = kind;
  std::map<std::uint64_t, std::vector<std::uint64_t>> edges;
  std::uint64_t start = SIZE_MAX;
  std::size_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == skip) continue;
    ++live;
    if (start == SIZE_MAX) start = 1000 + i;
    auto strategy = make_strategy(options, DpId(i));
    strategy->rebuild(view_for(n, DpId(i), skip));
    std::vector<NodeId> candidates;
    for (const Member& m : view_for(n, DpId(i), skip).peers)
      candidates.push_back(m.node);
    std::vector<NodeId> out;
    strategy->select(0, candidates, out);
    for (const NodeId target : out)
      edges[1000 + i].push_back(target.value());
  }
  std::set<std::uint64_t> seen;
  std::queue<std::uint64_t> frontier;
  frontier.push(start);
  seen.insert(start);
  while (!frontier.empty()) {
    const std::uint64_t node = frontier.front();
    frontier.pop();
    for (const std::uint64_t next : edges[node])
      if (seen.insert(next).second) frontier.push(next);
  }
  EXPECT_EQ(seen.size(), live) << kind_name(kind) << " n=" << n;
}

TEST(Overlay, MeshSelectsAllCandidates) {
  auto strategy = make_strategy(Options{}, DpId(0));
  EXPECT_EQ(strategy->kind(), Kind::kMesh);
  EXPECT_EQ(strategy->ttl(), 0u);  // no hop trailer: legacy wire bytes
  EXPECT_EQ(strategy->watch_peers(), nullptr);
  EXPECT_DOUBLE_EQ(strategy->watch_stretch(), 1.0);
  const std::vector<NodeId> candidates = {NodeId(5), NodeId(7), NodeId(9)};
  std::vector<NodeId> out;
  strategy->select(3, candidates, out);
  EXPECT_EQ(out, candidates);
  EXPECT_FALSE(strategy->rebuild(view_for(4, DpId(0))));
}

TEST(Overlay, TreeEdgesAreSymmetricAndConnected) {
  for (const std::size_t n : {2u, 3u, 10u, 40u}) {
    expect_connected(Kind::kTree, n);
    // Symmetry: i lists j's node exactly when j lists i's — the watch-set
    // failure-detector contract depends on it.
    Options options;
    options.kind = Kind::kTree;
    std::map<std::size_t, std::set<std::uint64_t>> push;
    for (std::size_t i = 0; i < n; ++i) {
      auto s = make_strategy(options, DpId(i));
      s->rebuild(view_for(n, DpId(i)));
      std::vector<NodeId> out;
      s->select(0, {}, out);
      for (const NodeId t : out) push[i].insert(t.value());
      ASSERT_NE(s->watch_peers(), nullptr);
      EXPECT_EQ(s->watch_peers()->size(), out.size());
    }
    for (std::size_t i = 0; i < n; ++i)
      for (const std::uint64_t t : push[i])
        EXPECT_TRUE(push[t - 1000].count(1000 + i))
            << "asymmetric tree edge " << i << "<->" << (t - 1000);
  }
}

TEST(Overlay, TreeRepairsOnViewChange) {
  Options options;
  options.kind = Kind::kTree;
  // dp5's parent in a 10-point degree-3 tree is rank (5-1)/3 = 1 (dp1).
  auto strategy = make_strategy(options, DpId(5));
  EXPECT_TRUE(strategy->rebuild(view_for(10, DpId(5))));
  std::vector<NodeId> before;
  strategy->select(0, {}, before);
  ASSERT_FALSE(before.empty());
  EXPECT_EQ(before.front().value(), 1001u);

  // Same view again: no structural change, no repair counted.
  EXPECT_FALSE(strategy->rebuild(view_for(10, DpId(5))));

  // dp1 dies: the roster compacts, dp5's rank drops to 4, its parent
  // becomes rank (4-1)/3 = 1 — which is now dp2.
  EXPECT_TRUE(strategy->rebuild(view_for(10, DpId(5), 1)));
  std::vector<NodeId> after;
  strategy->select(0, {}, after);
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front().value(), 1002u);
  expect_connected(Kind::kTree, 10, 1);
}

TEST(Overlay, SuperPeerPromotesOnSuperDeath) {
  Options options;
  options.kind = Kind::kSuperPeer;
  options.superpeers = 2;  // supers = {dp0, dp1}, leaves round-robin
  // dp4 is a leaf: rank 4, (4-2) % 2 = 0 -> assigned to super rank 0 (dp0).
  auto strategy = make_strategy(options, DpId(4));
  EXPECT_TRUE(strategy->rebuild(view_for(6, DpId(4))));
  std::vector<NodeId> out;
  strategy->select(0, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().value(), 1000u);

  // dp0 dies: positional repair promotes dp2 to the super set everywhere
  // at once; dp4's rank compacts to 3, (3-2) % 2 = 1 -> super rank 1 (dp2).
  EXPECT_TRUE(strategy->rebuild(view_for(6, DpId(4), 0)));
  out.clear();
  strategy->select(0, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.front().value(), 1002u);
  expect_connected(Kind::kSuperPeer, 6, 0);
  expect_connected(Kind::kSuperPeer, 10);
  expect_connected(Kind::kSuperPeer, 40);
}

TEST(Overlay, GossipSameSeedIsBitIdentical) {
  Options options;
  options.kind = Kind::kGossip;
  options.gossip_fanout = 3;
  options.seed = 99;
  auto a = make_strategy(options, DpId(7));
  auto b = make_strategy(options, DpId(7));
  a->rebuild(view_for(20, DpId(7)));
  b->rebuild(view_for(20, DpId(7)));
  std::vector<NodeId> candidates;
  for (const Member& m : view_for(20, DpId(7)).peers)
    candidates.push_back(m.node);
  for (std::uint64_t round = 0; round < 50; ++round) {
    std::vector<NodeId> out_a, out_b;
    a->select(round, candidates, out_a);
    b->select(round, candidates, out_b);
    EXPECT_EQ(out_a, out_b) << "round " << round;
  }
}

TEST(Overlay, GossipSelectsDistinctPeersAndDifferentStreamsPerPoint) {
  Options options;
  options.kind = Kind::kGossip;
  options.gossip_fanout = 4;
  options.seed = 5;
  auto a = make_strategy(options, DpId(1));
  auto b = make_strategy(options, DpId(2));
  std::vector<NodeId> candidates;
  for (std::size_t i = 0; i < 30; ++i) candidates.push_back(NodeId(1000 + i));
  bool diverged = false;
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::vector<NodeId> out_a, out_b;
    a->select(round, candidates, out_a);
    b->select(round, candidates, out_b);
    // Fan-out peers are sampled without replacement: no duplicates.
    std::set<std::uint64_t> uniq;
    for (const NodeId t : out_a) uniq.insert(t.value());
    EXPECT_EQ(uniq.size(), out_a.size());
    EXPECT_EQ(out_a.size(), 4u);
    if (out_a != out_b) diverged = true;
  }
  // Same base seed, different owners: per-point streams must differ.
  EXPECT_TRUE(diverged);
  // Fan-out clamps to the candidate pool.
  std::vector<NodeId> small = {NodeId(1), NodeId(2)};
  std::vector<NodeId> out;
  a->select(0, small, out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(Overlay, TtlBoundsScaleWithStructure) {
  Options options;
  options.kind = Kind::kTree;
  auto tree = make_strategy(options, DpId(0));
  tree->rebuild(view_for(40, DpId(0)));
  // Depth of a 40-node degree-3 heap is 3 (1 + 3 + 9 + 27 covers rank
  // 39): diameter 6 plus repair slack.
  EXPECT_EQ(tree->ttl(), 2u * 3u + 4u);

  options.kind = Kind::kGossip;
  auto gossip = make_strategy(options, DpId(0));
  gossip->rebuild(view_for(40, DpId(0)));
  // ceil(log2 40) = 6, tripled for heavy-tailed copy paths.
  EXPECT_EQ(gossip->ttl(), 3u * 6u + 2u);

  options.kind = Kind::kSuperPeer;
  auto super = make_strategy(options, DpId(0));
  super->rebuild(view_for(40, DpId(0)));
  EXPECT_EQ(super->ttl(), 6u);
}

TEST(Overlay, MessagesPerRoundFormulas) {
  Options options;
  EXPECT_DOUBLE_EQ(messages_per_round(40, options), 40.0 * 39.0);
  options.kind = Kind::kTree;
  EXPECT_DOUBLE_EQ(messages_per_round(40, options), 2.0 * 39.0);
  options.kind = Kind::kGossip;
  options.gossip_fanout = 3;
  EXPECT_DOUBLE_EQ(messages_per_round(40, options), 40.0 * 3.0);
  options.kind = Kind::kSuperPeer;
  options.superpeers = 0;  // ceil(sqrt(40)) = 7 supers, 33 leaves
  EXPECT_DOUBLE_EQ(messages_per_round(40, options), 2.0 * 33.0 + 7.0 * 6.0);
  EXPECT_DOUBLE_EQ(messages_per_round(1, options), 0.0);
}

TEST(Overlay, GossipWatchStretchTracksContactPeriod) {
  Options options;
  options.kind = Kind::kGossip;
  options.gossip_fanout = 3;
  auto gossip = make_strategy(options, DpId(0));
  gossip->rebuild(view_for(31, DpId(0)));
  // Expected contact period (n-1)/fanout = 10 rounds, doubled.
  EXPECT_DOUBLE_EQ(gossip->watch_stretch(), 20.0);
  // Small rosters never stretch below one interval.
  gossip->rebuild(view_for(3, DpId(0)));
  EXPECT_DOUBLE_EQ(gossip->watch_stretch(), 2.0);
}

}  // namespace
}  // namespace digruber::overlay
