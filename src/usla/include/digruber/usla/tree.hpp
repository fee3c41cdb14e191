#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "digruber/common/ids.hpp"
#include "digruber/common/result.hpp"
#include "digruber/grid/topology.hpp"
#include "digruber/usla/document.hpp"

namespace digruber::usla {

/// Recursive allocation tree: resolves USLA terms from a set of agreements
/// into effective shares for VO-at-grid, VO-at-site (overrides the grid
/// rule), group-under-VO, and user-under-group — the paper's recursive
/// extension of Maui fair-share semantics.
class AllocationTree {
 public:
  /// Builds from validated agreements. Unknown entity names are an error;
  /// `site_names` maps the grid's site names for site-scoped rules.
  static Result<AllocationTree> build(
      const std::vector<Agreement>& agreements, const grid::VoCatalog& catalog,
      const std::map<std::string, SiteId>& site_names = {});

  /// Share of CPU granted to a VO: the site-specific rule if present, else
  /// the grid-wide rule, else nullopt.
  [[nodiscard]] std::optional<ShareSpec> vo_share(
      VoId vo, std::optional<SiteId> site = std::nullopt) const;
  /// Same lookup for an arbitrary resource (storage, network).
  [[nodiscard]] std::optional<ShareSpec> vo_share_for(
      ResourceKind resource, VoId vo,
      std::optional<SiteId> site = std::nullopt) const;
  [[nodiscard]] std::optional<ShareSpec> group_share(GroupId group) const;
  [[nodiscard]] std::optional<ShareSpec> user_share(UserId user) const;
  /// True if any site overrides the VO's grid-wide rule for `resource`.
  [[nodiscard]] bool has_site_rule(ResourceKind resource, VoId vo) const;

 private:
  using ResourceVo = std::pair<int, VoId>;  // (ResourceKind, vo)
  std::map<ResourceVo, ShareSpec> vo_at_grid_;
  // Keyed VO first, so one VO's site rules are contiguous.
  std::map<std::pair<ResourceVo, SiteId>, ShareSpec> vo_at_site_;
  std::map<GroupId, ShareSpec> group_under_vo_;
  std::map<UserId, ShareSpec> user_under_group_;
};

/// Policy knobs for turning share specs into scheduling decisions.
struct EvaluatorOptions {
  /// Targets act as soft caps: a target of p% admits up to p * burst.
  double target_burst = 1.5;
  /// Entities without any rule: admit (open grid) or reject (closed).
  bool default_open = true;
};

/// One (site, VO) pair holding more running CPUs than the VO's USLA cap
/// allows — the ground-truth signature of split-brain over-commitment,
/// where two decision points each admitted up to the cap against views
/// that could not see each other's placements.
struct VoOverCommit {
  SiteId site;
  VoId vo;
  std::int32_t running = 0;   // CPUs actually held by the VO
  std::int32_t cap_cpus = 0;  // CPUs its USLA chain allows at this site

  [[nodiscard]] std::int32_t excess() const { return running - cap_cpus; }
};

/// A job's VO -> group -> user chain with its caps resolved: everything in
/// a chain headroom that does not depend on the site, looked up once per
/// query.
struct ResolvedChain {
  VoId vo;
  double vo_cap = 1.0;      // grid-wide VO cap fraction
  double group_cap = 1.0;   // group's fraction of its VO's cap
  double user_cap = 1.0;    // user's fraction of its group's cap
  bool site_rules = false;  // some site overrides the VO's CPU rule
};

/// One site as a chain sees it: the CPUs there and how many of them the
/// chain's VO, group and user already hold.
struct ChainUsage {
  SiteId site;
  std::int32_t total_cpus = 0;
  std::int32_t free_cpus = 0;
  std::int32_t vo_running = 0;
  std::int32_t group_running = 0;
  std::int32_t user_running = 0;
};

/// Whole CPUs in a fractional CPU count. The epsilon keeps an exact share
/// from losing a CPU to rounding: 0.29 * 100.0 is 28.999999999999996.
inline std::int32_t whole_cpus(double cpus) {
  const double x = cpus + 1e-9;
  // floor(x) wherever it fits an int32, in two instructions instead of a
  // rounding call: truncation rounds toward zero, so step a negative
  // fraction down.
  const auto t = std::int32_t(x);
  return double(t) > x ? t - 1 : t;
}

/// Answers "how many more CPUs may this VO/group/user take at this site
/// without violating USLAs?" given a site snapshot plus the broker's own
/// accounting of group/user usage (sites only report per-VO usage).
class UslaEvaluator {
 public:
  UslaEvaluator(const AllocationTree& tree, const grid::VoCatalog& catalog,
                EvaluatorOptions options = {});

  /// Hard-cap fraction of a site this consumer chain may occupy.
  [[nodiscard]] double cap_fraction(VoId vo,
                                    std::optional<SiteId> site = std::nullopt) const;

  /// CPUs of headroom for `vo` at the given snapshot (>= 0; bounded by the
  /// site's free CPUs).
  [[nodiscard]] std::int32_t vo_headroom(const grid::SiteSnapshot& snapshot,
                                         VoId vo) const;

  /// Bytes of permanent-storage headroom for `vo` at the snapshot, under
  /// the storage USLA terms (kStorage shares).
  [[nodiscard]] std::uint64_t storage_headroom(const grid::SiteSnapshot& snapshot,
                                               VoId vo) const;

  /// Fraction of network bandwidth `vo` may use (kNetwork share; 1.0 when
  /// no rule and the default policy is open).
  [[nodiscard]] double network_cap_fraction(VoId vo) const;

  /// Full-chain headroom: additionally applies the group share of its VO's
  /// cap and the user share of its group's cap, given the broker's own
  /// running counts for those finer entities at this site.
  [[nodiscard]] std::int32_t chain_headroom(const grid::SiteSnapshot& snapshot,
                                            VoId vo, GroupId group, UserId user,
                                            std::int32_t group_running,
                                            std::int32_t user_running) const;

  /// The chain's caps, for `chain_headroom` at many sites.
  [[nodiscard]] ResolvedChain resolve_chain(VoId vo, GroupId group,
                                            UserId user) const;

  /// Full-chain headroom of a resolved chain at one site (>= 0). Defined
  /// here so a candidate scan inlines it into its per-site loop.
  [[nodiscard]] std::int32_t chain_headroom(const ResolvedChain& chain,
                                            const ChainUsage& at) const {
    const double vo_cap =
        chain.site_rules ? cap_fraction(chain.vo, at.site) : chain.vo_cap;
    const double vo_cpus = vo_cap * double(at.total_cpus);
    const std::int32_t vo_room = std::max(
        0, std::min(whole_cpus(vo_cpus) - at.vo_running, at.free_cpus));
    const std::int32_t group_room =
        whole_cpus(chain.group_cap * vo_cpus) - at.group_running;
    const std::int32_t user_room =
        whole_cpus(chain.user_cap * chain.group_cap * vo_cpus) - at.user_running;
    return std::max(0, std::min({vo_room, group_room, user_room}));
  }

  /// True if a job of `cpus` for `vo` fits at the snapshot under USLAs.
  [[nodiscard]] bool admissible(const grid::SiteSnapshot& snapshot, VoId vo,
                                std::int32_t cpus) const;

  /// CPUs of `vo`'s cap at a site of `total_cpus` — the absolute ceiling
  /// the headroom computations enforce against *local* knowledge. Useful
  /// on its own to audit ground truth, where local knowledge may have
  /// been wrong (a partition hid the other side's placements).
  [[nodiscard]] std::int32_t vo_cap_cpus(SiteId site, VoId vo,
                                         std::int32_t total_cpus) const;

  /// Ground-truth entitlement audit: every (site, VO) in `sites` whose
  /// actually-running CPUs exceed the VO's cap. A single honest broker
  /// never admits past the cap, so on fresh state this is empty; entries
  /// appear when divergent views each admitted within their own believed
  /// headroom and the union breached the entitlement — the over-commit a
  /// partition causes and reconciliation must surface. Deterministic
  /// (site, then VO) order.
  [[nodiscard]] std::vector<VoOverCommit> over_commit_audit(
      const std::vector<grid::SiteSnapshot>& sites) const;

  /// Guaranteed (lower-limit) fraction, 0 when none declared.
  [[nodiscard]] double guarantee_fraction(VoId vo) const;

  [[nodiscard]] const EvaluatorOptions& options() const { return options_; }

 private:
  [[nodiscard]] double effective_cap(const std::optional<ShareSpec>& share) const;

  const AllocationTree& tree_;
  const grid::VoCatalog& catalog_;
  EvaluatorOptions options_;
};

}  // namespace digruber::usla
