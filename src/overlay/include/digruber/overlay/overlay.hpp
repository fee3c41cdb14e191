#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "digruber/common/ids.hpp"

namespace digruber::overlay {

/// Dissemination overlay shapes. The paper floods over a full mesh —
/// O(N^2) exchange traffic per round — and its future-work section asks
/// how a hierarchy would change that at larger deployments. Each strategy
/// answers "who do I push this round's state to"; the flooding dedup and
/// anti-entropy layers above are strategy-agnostic, so convergence may
/// take more rounds under a sparse overlay but never loses records.
enum class Kind : std::uint8_t {
  /// Every round pushes to every live peer (the paper's behavior).
  kMesh = 0,
  /// Deterministic degree-k spanning tree over the sorted live member
  /// ids; each node pushes to its parent and children only.
  kTree,
  /// Epidemic push: every round samples `gossip_fanout` distinct live
  /// peers from a per-node deterministic stream.
  kGossip,
  /// Two layers: leaf points exchange only with their assigned
  /// super-peer; super-peers full-mesh among themselves and fan out to
  /// their leaves (the paper's "one-layer vs hierarchy" sketch).
  kSuperPeer,
};

const char* kind_name(Kind kind);

struct Options {
  Kind kind = Kind::kMesh;
  /// Children per interior node of the spanning tree.
  std::uint32_t tree_degree = 3;
  /// Peers pushed per round under gossip.
  std::uint32_t gossip_fanout = 3;
  /// Super-peer count; 0 derives ceil(sqrt(n)) from the live view size.
  std::uint32_t superpeers = 0;
  /// Base seed for the gossip peer-sampling stream. Each strategy mixes
  /// its own decision-point id in, so same-seed runs are bit-identical
  /// without sharing rng state across points.
  std::uint64_t seed = 0;
};

/// One live peer as the strategy sees it: broker identity plus the RPC
/// server address exchanges are pushed to.
struct Member {
  DpId dp;
  NodeId node;
};

/// The live view a strategy derives its structure from: this point plus
/// its live peers, peers sorted by DpId (deterministic across points, so
/// every point derives the *same* tree / super-peer set).
struct View {
  DpId self;
  std::vector<Member> peers;
};

/// Peer-set selection per exchange round plus the per-message relay TTL
/// policy. Implementations are pure topology: they own no sockets and
/// send nothing — the decision point asks for this round's targets and
/// stamps/polices the hops extension according to `ttl()`.
class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual Kind kind() const = 0;

  /// Re-derive internal structure from a changed live view (membership
  /// transitions, join/leave, static wiring). Returns true when the
  /// derived push set actually changed — the caller counts repairs.
  virtual bool rebuild(const View& view) = 0;

  /// Fill `out` with this round's push targets. `candidates` is the raw
  /// ordered live-neighbor list the decision point maintains (the mesh
  /// answer, and the sampling pool for gossip).
  virtual void select(std::uint64_t round, const std::vector<NodeId>& candidates,
                      std::vector<NodeId>& out) = 0;

  /// Relay-depth bound stamped on originated exchanges. 0 means "no hops
  /// extension" (mesh: direct delivery, the wire stays byte-identical to
  /// the pre-overlay format). Receivers apply records regardless of
  /// depth — the bound only suppresses further relaying, so an expired
  /// TTL degrades to anti-entropy repair, never to record loss.
  [[nodiscard]] virtual std::uint32_t ttl() const = 0;

  /// Failure-detector contract: the peers whose direct frames this point
  /// expects every round. Sparse symmetric topologies (tree, super-peer)
  /// return their push set — those edges are bidirectional, so silence on
  /// one is evidence of failure, while silence from a non-adjacent peer is
  /// just the topology working; verdicts about non-adjacent peers arrive
  /// via membership gossip from their own watchers. Returns nullptr when
  /// any peer may legitimately push here (mesh, gossip): the detector then
  /// watches everyone, with its clocks scaled by `watch_stretch()`. The
  /// vector is sorted by DpId and stays valid until the next rebuild.
  [[nodiscard]] virtual const std::vector<DpId>* watch_peers() const {
    return nullptr;
  }
  /// Multiplier on the heartbeat interval the detector measures silence
  /// against. 1.0 for strategies with a deterministic per-round contact
  /// (mesh, tree, super-peer); gossip hears from a given peer only every
  /// (n-1)/fanout rounds in expectation, so its thresholds stretch
  /// accordingly — slower detection instead of false deaths.
  [[nodiscard]] virtual double watch_stretch() const { return 1.0; }
};

std::unique_ptr<Strategy> make_strategy(const Options& options, DpId self);

/// Expected exchange messages per round for an `n`-point deployment —
/// the per-strategy traffic term GRUB-SIM charges against the capacity
/// model. Mesh n(n-1); tree 2(n-1) (each edge pushed both ways); gossip
/// n*min(fanout, n-1); super-peer 2 leaves + S(S-1).
double messages_per_round(std::size_t n, const Options& options);

}  // namespace digruber::overlay
