#pragma once

#include <vector>

#include "digruber/grid/job.hpp"
#include "digruber/gruber/view.hpp"
#include "digruber/usla/tree.hpp"

namespace digruber::gruber {

/// The GRUBER engine: maintains a generic view of resource utilization in
/// the grid and applies USLAs to produce per-job candidate site lists
/// (paper Section 3.2). Transport-agnostic — the decision-point service
/// and the in-process examples both drive it directly.
class GruberEngine {
 public:
  GruberEngine(const grid::VoCatalog& catalog, const usla::AllocationTree& tree,
               usla::EvaluatorOptions options = {});

  [[nodiscard]] GridView& view() { return view_; }
  [[nodiscard]] const GridView& view() const { return view_; }
  [[nodiscard]] const usla::UslaEvaluator& evaluator() const { return evaluator_; }

  /// Candidate sites for a job: every site whose USLA chain headroom fits
  /// the job's CPUs, with free estimates clipped to that headroom. Sites
  /// with zero headroom are excluded. One pass over the view: the chain's
  /// caps are resolved once and each site's records are folded once.
  [[nodiscard]] std::vector<SiteLoad> candidates(const grid::Job& job,
                                                 sim::Time now) const;

  /// All site loads, unfiltered (used when USLA filtering is disabled or
  /// for monitoring).
  [[nodiscard]] std::vector<SiteLoad> all_loads(sim::Time now) const {
    return view_.loads(now);
  }

  /// Record a dispatch decision in the utilization view; returns whether
  /// the view holds it (`GridView::record_dispatch`: a record already
  /// expired at `now` is refused).
  bool record(const DispatchRecord& record, sim::Time now = sim::Time::zero()) {
    return view_.record_dispatch(record, now);
  }

 private:
  usla::UslaEvaluator evaluator_;
  GridView view_;
};

}  // namespace digruber::gruber
