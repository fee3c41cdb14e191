#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "digruber/euryale/planner.hpp"

namespace digruber::euryale {

/// Minimal DagMan: runs a DAG of jobs through the Euryale planner,
/// releasing each node when all of its parents have succeeded. A failed
/// (abandoned) node blocks its descendants, as in Condor DAGMan.
class DagMan {
 public:
  explicit DagMan(EuryalePlanner& planner) : planner_(planner) {}

  void add_node(const std::string& name, grid::Job job);
  /// `child` will not start until `parent` succeeds.
  void add_edge(const std::string& parent, const std::string& child);

  /// Execute the DAG; `done(succeeded, failed, blocked)` fires once when no
  /// more progress is possible.
  void run(std::function<void(int succeeded, int failed, int blocked)> done);

 private:
  struct Node {
    grid::Job job;
    std::vector<std::string> children;
    int waiting_on = 0;  // unsatisfied parents
    bool started = false;
    bool succeeded = false;
    bool failed = false;
  };

  void release_ready();
  void finish_if_done();

  EuryalePlanner& planner_;
  std::map<std::string, Node> nodes_;
  std::function<void(int, int, int)> done_;
  int in_flight_ = 0;
  int succeeded_ = 0;
  int failed_ = 0;
};

}  // namespace digruber::euryale
