#include "digruber/gruber/engine.hpp"

#include <algorithm>

namespace digruber::gruber {

GruberEngine::GruberEngine(const grid::VoCatalog& catalog,
                           const usla::AllocationTree& tree,
                           usla::EvaluatorOptions options)
    : evaluator_(tree, catalog, options) {}

std::vector<SiteLoad> GruberEngine::candidates(const grid::Job& job,
                                               sim::Time now) const {
  const usla::ResolvedChain chain =
      evaluator_.resolve_chain(job.vo, job.group, job.user);
  const std::uint64_t storage_need = job.input_bytes + job.output_bytes;
  std::vector<SiteLoad> out;
  out.reserve(view_.site_count());
  view_.fold(job.vo, job.group, job.user, now, [&](const SiteFold& site) {
    const std::int32_t headroom = evaluator_.chain_headroom(chain, site.usage);
    if (headroom < job.cpus) return;
    if (storage_need > 0 &&
        evaluator_.storage_headroom(*site.base, job.vo) < storage_need) {
      return;
    }
    SiteLoad clipped = site.load;
    clipped.free_estimate = std::min(clipped.free_estimate, headroom);
    out.push_back(clipped);
  });
  return out;
}

}  // namespace digruber::gruber
