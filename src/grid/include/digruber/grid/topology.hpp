#pragma once

#include <memory>
#include <string>
#include <vector>

#include "digruber/common/rng.hpp"
#include "digruber/grid/site.hpp"

namespace digruber::grid {

struct SiteSpec {
  std::string name;
  std::vector<ClusterSpec> clusters;
};

/// Declarative description of a grid; the generator produces OSG-like
/// heavy-tailed site-size distributions.
struct TopologySpec {
  std::vector<SiteSpec> sites;

  [[nodiscard]] std::int64_t total_cpus() const;

  /// Grid3/OSG circa 2005: ~30 sites, ~3,000 CPUs, a few large centers and
  /// a long tail of small clusters.
  static TopologySpec osg2005();

  /// The paper's emulated environment: OSG scaled by `factor` (default 10:
  /// ~300 sites, ~30,000 CPUs). Sizes are re-drawn from the same
  /// distribution, not copy-pasted, so the scaled grid stays heterogeneous.
  static TopologySpec osg_scaled(int factor, Rng& rng);

  /// Generic generator: `n_sites` sites totalling roughly `target_cpus`,
  /// sizes Pareto-distributed with the given shape.
  static TopologySpec generate(int n_sites, std::int64_t target_cpus, Rng& rng,
                               double pareto_shape = 1.2);
};

/// Owns the Site instances for one simulation run.
class Grid {
 public:
  Grid(sim::Simulation& sim, const TopologySpec& spec);

  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] Site& site(SiteId id);
  [[nodiscard]] const Site& site(SiteId id) const;
  [[nodiscard]] const std::vector<std::unique_ptr<Site>>& sites() const { return sites_; }

  [[nodiscard]] std::int64_t total_cpus() const { return total_cpus_; }
  [[nodiscard]] std::int64_t total_free_cpus() const;
  /// The site with the most free CPUs right now (the accuracy oracle).
  [[nodiscard]] const Site& best_site() const;

  [[nodiscard]] std::vector<SiteSnapshot> snapshot_all() const;

  /// Total CPU-seconds consumed by completed jobs across all sites.
  [[nodiscard]] double cpu_seconds_consumed() const;

 private:
  std::vector<std::unique_ptr<Site>> sites_;
  std::int64_t total_cpus_ = 0;
};

/// Registry of virtual organizations, their groups, and users.
class VoCatalog {
 public:
  VoId add_vo(std::string name);
  GroupId add_group(VoId vo, std::string name);
  UserId add_user(GroupId group, std::string name);

  [[nodiscard]] std::size_t vo_count() const { return vos_.size(); }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t user_count() const { return users_.size(); }

  [[nodiscard]] const std::string& vo_name(VoId id) const;
  [[nodiscard]] const std::string& group_name(GroupId id) const;
  [[nodiscard]] VoId group_vo(GroupId id) const;
  [[nodiscard]] GroupId user_group(UserId id) const;
  [[nodiscard]] const std::vector<GroupId>& groups_of(VoId vo) const;

  /// Convenience builder: `n_vos` VOs with `groups_per_vo` groups each and
  /// one user per group (the paper's composite-workload shape).
  static VoCatalog uniform(int n_vos, int groups_per_vo);

 private:
  struct VoEntry {
    std::string name;
    std::vector<GroupId> groups;
  };
  struct GroupEntry {
    std::string name;
    VoId vo;
  };
  struct UserEntry {
    std::string name;
    GroupId group;
  };
  std::vector<VoEntry> vos_;
  std::vector<GroupEntry> groups_;
  std::vector<UserEntry> users_;
};

}  // namespace digruber::grid
