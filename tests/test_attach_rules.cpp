// Extension attach rules: with each optional feature on alone, a decision
// point and a client put exactly the extensions whose own condition holds
// on every frame they send — nothing rides along to reach a later field.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "digruber/digruber/client.hpp"
#include "digruber/digruber/decision_point.hpp"
#include "digruber/durable/wal.hpp"
#include "digruber/gruber/selectors.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::digruber {
namespace {

sim::Time at(double seconds) { return sim::Time::from_seconds(seconds); }

// An archive that visits a message's extension block and records which
// tags are present; fixed fields are ignored.
struct TagProbe {
  std::vector<int> present;

  template <class T>
  TagProbe& operator&(const T&) {
    return *this;
  }
  template <class... Ts>
  void extensions(const net::wire::Ext<Ts>&... exts) {
    ((exts.field ? present.push_back(exts.tag) : void()), ...);
  }
};

template <class T>
std::vector<int> tags(T msg) {
  TagProbe probe;
  msg.serialize(probe);
  return probe.present;
}

using Tags = std::vector<int>;
using Exchange = ExchangeMessage;
using Reply = GetSiteLoadsReply;

struct AttachCase {
  const char* name;
  std::function<void(DecisionPointOptions&, ClientOptions&)> enable;
  Tags exchange;       // the point's first exchange frame
  Tags current_reply;  // reply to a client whose membership epoch is current
  Tags stale_reply;    // reply to a client whose epoch is older
  Tags late_reply;     // reply once the point's site state has gone stale
  Tags dedup_ack;      // ack to a retried stamped report
  Tags wal;            // the stamped report's WAL dispatch frame
  Tags request;        // the client's site-load query
  Tags report;         // the client's selection report
};

void PrintTo(const AttachCase& c, std::ostream* os) { *os << c.name; }

net::ContainerProfile fast_profile() {
  net::ContainerProfile p;
  p.workers = 4;
  p.base_overhead = sim::Duration::millis(5);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

std::vector<grid::SiteSnapshot> snapshots() {
  std::vector<grid::SiteSnapshot> out;
  for (std::uint64_t i = 0; i < 3; ++i) {
    grid::SiteSnapshot s;
    s.site = SiteId(i);
    s.total_cpus = 100;
    s.free_cpus = 100;
    // Observed just after start, so it goes stale past the threshold.
    s.as_of = at(1);
    out.push_back(s);
  }
  return out;
}

ReportSelectionRequest stamped_report() {
  ReportSelectionRequest report;
  report.site = SiteId(1);
  report.vo = VoId(0);
  report.cpus = 2;
  report.est_runtime = sim::Duration::minutes(30);
  report.request_id = RequestId{7, 1};
  return report;
}

class AttachRules : public ::testing::TestWithParam<AttachCase> {};

TEST_P(AttachRules, EachExtensionRidesExactlyWhenItsConditionHolds) {
  const AttachCase& c = GetParam();
  sim::Simulation sim;
  net::SimTransport transport(sim, net::WanModel(net::WanParams{}, 1));
  const grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 2);
  const usla::AllocationTree tree = usla::AllocationTree::build({}, catalog).value();

  DecisionPointOptions options;
  options.profile = fast_profile();
  options.exchange_interval = sim::Duration::minutes(1);
  options.partition.staleness_threshold = sim::Duration::seconds(30);
  ClientOptions client_options;
  c.enable(options, client_options);

  DecisionPoint dp(sim, transport, DpId(0), catalog, tree, options);
  dp.bootstrap(snapshots());

  // A stand-in peer: captures the point's exchange frames and sends its
  // own (empty) ones so the point keeps hearing from it.
  net::RpcServer peer(sim, transport, fast_profile());
  std::vector<Exchange> frames;
  peer.register_method(kExchange, [&](std::span<const std::uint8_t> body, NodeId) {
    Exchange frame;
    EXPECT_TRUE(net::wire::decode(body, frame));
    frames.push_back(std::move(frame));
    return net::Served{};
  });
  dp.set_overlay_view({{DpId(1), peer.node()}});
  dp.seed_membership({MemberInfo{DpId(0), dp.node().value(), MemberState::kAlive, 0},
                      MemberInfo{DpId(1), peer.node().value(), MemberState::kAlive, 0}});

  net::RpcClient rpc(sim, transport);
  for (const double t : {10.0, 40.0}) {
    sim.schedule_at(at(t), [&, t] {
      Exchange heartbeat;
      heartbeat.from = DpId(1);
      heartbeat.exchange_round = std::uint64_t(t / 30.0) + 1;
      rpc.notify(dp.node(), kExchange, heartbeat);
    });
  }
  const auto query = [&](double t, std::uint64_t epoch, std::optional<Reply>& out) {
    sim.schedule_at(at(t), [&, epoch] {
      GetSiteLoadsRequest request;
      request.vo = VoId(0);
      request.membership_epoch = epoch;
      rpc.call<GetSiteLoadsRequest, Reply>(
          dp.node(), kGetSiteLoads, request, sim::Duration::seconds(5),
          [&out](Result<Reply> reply) {
            ASSERT_TRUE(reply.ok()) << reply.error();
            out = reply.value();
          });
    });
  };
  const std::uint64_t epoch = dp.membership() ? dp.membership()->epoch() : 0;
  std::optional<Reply> current, stale, late;
  query(20, epoch, current);
  query(20, 0, stale);
  query(50, epoch, late);
  std::optional<Ack> first_ack, retry_ack;
  for (auto [t, out] : {std::pair{25.0, &first_ack}, std::pair{35.0, &retry_ack}}) {
    sim.schedule_at(at(t), [&, out = out] {
      rpc.call<ReportSelectionRequest, Ack>(
          dp.node(), kReportSelection, stamped_report(), sim::Duration::seconds(5),
          [out](Result<Ack> ack) {
            ASSERT_TRUE(ack.ok()) << ack.error();
            *out = ack.value();
          });
    });
  }
  sim.run_until(at(65));
  dp.stop();

  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(tags(frames.front()), c.exchange);
  ASSERT_TRUE(current && stale && late);
  EXPECT_EQ(tags(*current), c.current_reply);
  EXPECT_EQ(tags(*stale), c.stale_reply);
  EXPECT_EQ(tags(*late), c.late_reply);
  ASSERT_TRUE(first_ack && retry_ack);
  EXPECT_EQ(tags(*first_ack), Tags{});
  EXPECT_EQ(tags(*retry_ack), c.dedup_ack);
  std::optional<WalDispatch> logged;
  if (dp.disk() != nullptr) {
    durable::wal_scan(dp.disk()->log(),
                      [&](std::uint8_t type, std::span<const std::uint8_t> payload) {
                        if (WalRecordType(type) != WalRecordType::kDispatch) return;
                        ASSERT_FALSE(logged) << "one dispatch expected";
                        ASSERT_TRUE(net::wire::decode(payload, logged.emplace()));
                      });
    ASSERT_TRUE(logged);
  }
  EXPECT_EQ(logged ? tags(*logged) : Tags{}, c.wal);

  // The client side: its query and its report, captured by a stand-in
  // point that answers with every site.
  net::RpcServer tap(sim, transport, fast_profile());
  std::optional<GetSiteLoadsRequest> request;
  std::optional<ReportSelectionRequest> report;
  tap.register_typed<GetSiteLoadsRequest, Reply>(
      kGetSiteLoads, [&](const GetSiteLoadsRequest& r, NodeId) {
        request = r;
        Reply reply;
        for (std::uint64_t i = 0; i < 3; ++i) {
          gruber::SiteLoad load;
          load.site = SiteId(i);
          load.total_cpus = 100;
          load.free_estimate = 100;
          reply.candidates.push_back(load);
        }
        return std::pair{reply, sim::Duration::millis(1)};
      });
  tap.register_typed<ReportSelectionRequest, Ack>(
      kReportSelection, [&](const ReportSelectionRequest& r, NodeId) {
        report = r;
        return std::pair{Ack{}, sim::Duration::millis(1)};
      });
  DiGruberClient client(sim, transport, ClientId(3), tap.node(),
                        {SiteId(0), SiteId(1), SiteId(2)},
                        gruber::make_selector("top-k", sim.rng().fork()),
                        sim.rng().fork(), client_options);
  grid::Job job;
  job.id = JobId(1);
  job.vo = VoId(0);
  job.budget = 50.0;
  client.schedule(job, [](grid::Job, QueryOutcome) {});
  sim.run_until(sim.now() + sim::Duration::seconds(30));
  ASSERT_TRUE(request && report);
  EXPECT_EQ(tags(*request), c.request);
  EXPECT_EQ(tags(*report), c.report);
}

INSTANTIATE_TEST_SUITE_P(
    Features, AttachRules,
    ::testing::Values(
        AttachCase{"None", [](DecisionPointOptions&, ClientOptions&) {},
                   {}, {}, {}, {}, {}, {}, {}, {}},
        AttachCase{"LoadAdvertising",
                   [](DecisionPointOptions& dp, ClientOptions& client) {
                     dp.profile.overload_control = true;
                     client.overload_aware = true;
                   },
                   {Exchange::kLoad}, {Reply::kLoads}, {Reply::kLoads},
                   {Reply::kLoads}, {}, {}, {}, {}},
        AttachCase{"Membership",
                   [](DecisionPointOptions& dp, ClientOptions& client) {
                     dp.membership.enabled = true;
                     client.membership_aware = true;
                   },
                   {Exchange::kMembership}, {}, {Reply::kMembership}, {}, {}, {},
                   {GetSiteLoadsRequest::kEpoch}, {}},
        AttachCase{"PartitionTolerance",
                   [](DecisionPointOptions& dp, ClientOptions&) {
                     dp.partition.enabled = true;
                   },
                   {Exchange::kLoad, Exchange::kDigest}, {Reply::kDigest},
                   {Reply::kDigest}, {Reply::kDigest, Reply::kDegraded}, {}, {}, {},
                   {}},
        AttachCase{"Economy",
                   [](DecisionPointOptions& dp, ClientOptions& client) {
                     dp.economy.enabled = true;
                     client.market_placement = true;
                   },
                   {Exchange::kLoad, Exchange::kPrice},
                   {Reply::kLoads, Reply::kPrices}, {Reply::kLoads, Reply::kPrices},
                   {Reply::kLoads, Reply::kPrices}, {}, {}, {},
                   {ReportSelectionRequest::kBid}},
        AttachCase{"TreeOverlay",
                   [](DecisionPointOptions& dp, ClientOptions&) {
                     dp.overlay.kind = overlay::Kind::kTree;
                   },
                   {Exchange::kLoad, Exchange::kDigest, Exchange::kHops}, {}, {}, {},
                   {}, {}, {}, {}},
        AttachCase{"RequestIdsWithDurability",
                   [](DecisionPointOptions& dp, ClientOptions& client) {
                     dp.durability.enabled = true;
                     client.request_ids = true;
                   },
                   {}, {}, {}, {}, {Ack::kOriginalSite}, {WalDispatch::kRequestId},
                   {}, {ReportSelectionRequest::kRequestId}}),
    [](const ::testing::TestParamInfo<AttachCase>& info) { return info.param.name; });

}  // namespace
}  // namespace digruber::digruber
