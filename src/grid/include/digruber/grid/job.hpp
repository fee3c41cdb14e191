#pragma once

#include <cstdint>

#include "digruber/common/ids.hpp"
#include "digruber/sim/time.hpp"

namespace digruber::grid {

/// The four-state job lifecycle from the paper's workload model:
/// 1) submitted by a user to a submission host, 2) submitted by the host to
/// a site but queued/held, 3) running at a site, 4) completed.
enum class JobState : std::uint8_t {
  kAtSubmissionHost = 0,
  kQueuedAtSite,
  kRunning,
  kCompleted,
  kFailed,
};

struct Job {
  JobId id;
  VoId vo;
  GroupId group;
  UserId user;
  int cpus = 1;
  sim::Duration runtime = sim::Duration::seconds(600);
  /// Data staged in before execution and out after (Euryale pre/postscript).
  std::uint64_t input_bytes = 0;
  std::uint64_t output_bytes = 0;
  /// Economic fields (market placement): spend ceiling and completion
  /// deadline in seconds from submission; 0 = no economic constraint.
  /// Host-local — they reach the broker via the optional bid extension,
  /// not the job serialization, so job archives keep their byte layout.
  double budget = 0.0;
  double deadline_s = 0.0;

  JobState state = JobState::kAtSubmissionHost;
  SiteId site;  // selected by the broker (or the random fallback)

  sim::Time created;     // entered the submission host
  sim::Time dispatched;  // sent to the site (state 2 begins)
  sim::Time started;     // began executing (state 3 begins)
  sim::Time completed;   // finished (state 4)

  /// True when the site came from a DI-GRUBER decision point (as opposed
  /// to the client's random-site timeout fallback).
  bool handled_by_gruber = false;
  /// Scheduling accuracy SA_i sampled at dispatch (see metrics module).
  double accuracy = 0.0;
  /// Number of times Euryale re-planned this job after a failure.
  int replans = 0;

  /// Queue time: dispatch -> start, the paper's QT_i.
  [[nodiscard]] sim::Duration queue_time() const { return started - dispatched; }

  template <class Archive>
  void serialize(Archive& ar) {
    ar & id & vo & group & user & cpus & runtime & input_bytes & output_bytes &
        state & site & created & dispatched & started & completed &
        handled_by_gruber & accuracy & replans;
  }
};

}  // namespace digruber::grid
