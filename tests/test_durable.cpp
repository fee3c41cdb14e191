#include "digruber/durable/wal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "digruber/digruber/decision_point.hpp"
#include "digruber/net/sim_transport.hpp"

namespace digruber::durable {
namespace {

std::vector<std::uint8_t> payload_of(std::uint8_t fill, std::size_t n) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(Wal, RoundTripsFramesInOrder) {
  SimDisk disk({}, 7);
  for (std::uint8_t i = 0; i < 5; ++i) {
    const auto p = payload_of(i, 10 + i);
    wal_append(disk, i, p);
  }
  disk.fsync();

  std::vector<std::pair<std::uint8_t, std::size_t>> seen;
  const WalScan scan = wal_scan(disk.log(), [&](std::uint8_t type,
                                                std::span<const std::uint8_t> p) {
    seen.emplace_back(type, p.size());
    for (const std::uint8_t b : p) EXPECT_EQ(b, type);
  });
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.frames, 5u);
  EXPECT_EQ(scan.valid_bytes, disk.log().size());
  ASSERT_EQ(seen.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, std::size_t(10 + i));
  }
}

TEST(Wal, TornTailTruncatesToLastGoodFrame) {
  SimDisk disk({}, 11);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const auto p = payload_of(i, 32);
    wal_append(disk, i, p);
  }
  disk.tear_tail();  // loses 1..frame_size bytes of the final append

  std::uint64_t delivered = 0;
  const WalScan scan = wal_scan(
      disk.log(), [&](std::uint8_t, std::span<const std::uint8_t>) { ++delivered; });
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.frames, 2u);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(disk.counters().torn_tails, 1u);
}

TEST(Wal, BitRotTerminatesScanAtCorruptFrame) {
  SimDisk disk({}, 13);
  for (std::uint8_t i = 0; i < 4; ++i) {
    const auto p = payload_of(i, 64);
    wal_append(disk, i, p);
  }
  const WalScan clean = wal_scan(disk.log(), [](auto, auto) {});
  ASSERT_EQ(clean.frames, 4u);

  disk.corrupt_bit();
  const WalScan scan = wal_scan(disk.log(), [](auto, auto) {});
  EXPECT_TRUE(scan.truncated);
  EXPECT_LT(scan.frames, 4u);
  EXPECT_EQ(disk.counters().bit_flips, 1u);
}

TEST(Wal, CheckpointImageRoundTripsAndRejectsDamage) {
  const auto payload = payload_of(0xAB, 100);
  const std::vector<std::uint8_t> image = make_checkpoint_image(payload);

  const auto back = read_checkpoint_image(image);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), payload.size());
  EXPECT_TRUE(std::equal(back->begin(), back->end(), payload.begin()));

  // One flipped bit anywhere invalidates the image.
  for (const std::size_t at : {std::size_t(0), image.size() / 2, image.size() - 1}) {
    std::vector<std::uint8_t> bad = image;
    bad[at] ^= 0x40;
    EXPECT_FALSE(read_checkpoint_image(bad).has_value()) << "flip at " << at;
  }
  // A short prefix reads as "no checkpoint", not as garbage state.
  for (std::size_t cut = 0; cut < image.size(); cut += 7) {
    const std::span<const std::uint8_t> prefix(image.data(), cut);
    EXPECT_FALSE(read_checkpoint_image(prefix).has_value()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace digruber::durable

namespace digruber::digruber {
namespace {

net::ContainerProfile fast_profile() {
  net::ContainerProfile p;
  p.workers = 4;
  p.base_overhead = sim::Duration::millis(5);
  p.auth_cost = sim::Duration::zero();
  p.parse_cost_per_kb = sim::Duration::zero();
  p.serialize_cost_per_kb = sim::Duration::zero();
  return p;
}

struct Fixture {
  sim::Simulation sim;
  net::SimTransport transport;
  grid::VoCatalog catalog = grid::VoCatalog::uniform(2, 2);
  usla::AllocationTree tree;
  net::RpcClient rpc;

  explicit Fixture(std::uint64_t seed = 1)
      : transport(sim, net::WanModel(net::WanParams{}, seed)), rpc(sim, transport) {
    tree = usla::AllocationTree::build({}, catalog).value();
  }

  DecisionPointOptions options(bool durable = true) {
    DecisionPointOptions o;
    o.profile = fast_profile();
    o.exchange_interval = sim::Duration::minutes(1);
    o.eval_cost_per_site = sim::Duration::millis(0.1);
    if (durable) {
      o.durability.enabled = true;
      o.durability.disk_seed = 42;
    }
    return o;
  }

  std::vector<grid::SiteSnapshot> snapshots() {
    std::vector<grid::SiteSnapshot> out;
    for (std::uint64_t i = 0; i < 3; ++i) {
      grid::SiteSnapshot s;
      s.site = SiteId(i);
      s.total_cpus = 100;
      s.free_cpus = 100;
      out.push_back(s);
    }
    return out;
  }

  ReportSelectionRequest report(std::uint64_t seq = 0) {
    ReportSelectionRequest r;
    r.job = JobId(1);
    r.site = SiteId(0);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = 40;
    r.est_runtime = sim::Duration::seconds(5000);
    if (seq != 0) r.request_id = RequestId{77, seq};
    return r;
  }

  void send_report(DecisionPoint& dp, const ReportSelectionRequest& r,
                   Ack* out = nullptr) {
    rpc.call<ReportSelectionRequest, Ack>(
        dp.node(), kReportSelection, r, sim::Duration::seconds(30),
        [out](Result<Ack> a) {
          ASSERT_TRUE(a.ok()) << a.error();
          if (out) *out = a.value();
        });
  }

  int free_estimate(DecisionPoint& dp, int vo = 0) {
    GetSiteLoadsRequest q;
    q.job = JobId(9);
    q.vo = VoId(vo);
    q.group = GroupId(0);
    q.user = UserId(0);
    q.cpus = 1;
    int estimate = -1;
    rpc.call<GetSiteLoadsRequest, GetSiteLoadsReply>(
        dp.node(), kGetSiteLoads, q, sim::Duration::seconds(30),
        [&](Result<GetSiteLoadsReply> result) {
          if (!result.ok()) return;
          for (const auto& c : result.value().candidates) {
            if (c.site == SiteId(0)) estimate = int(c.free_estimate);
          }
        });
    sim.run_until(sim.now() + sim::Duration::seconds(15));
    return estimate;
  }
};

TEST(DurableDp, ReplaysCommittedDecisionsAfterCrash) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());
  ASSERT_NE(dp.disk(), nullptr);

  f.send_report(dp, f.report());
  f.sim.run_until(sim::Time::from_seconds(10));
  ASSERT_EQ(dp.counters().selections, 1u);
  ASSERT_GE(dp.disk()->counters().appends, 1u);
  ASSERT_GE(dp.disk()->counters().fsyncs, 1u);

  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));

  EXPECT_EQ(dp.counters().recoveries, 1u);
  EXPECT_GE(dp.counters().replay_records, 1u);
  EXPECT_EQ(dp.counters().replay_mismatches, 0u);
  // No checkpoint had been written yet: an absent image is the normal
  // WAL-only path, not a fallback (fallbacks count *damaged* images).
  EXPECT_EQ(dp.counters().checkpoint_fallbacks, 0u);
  // The crashed-and-replayed broker still remembers the 40-CPU placement
  // without any peer to resync from.
  EXPECT_EQ(f.free_estimate(dp), 60);
  dp.stop();
}

TEST(DurableDp, RetryAfterCrashReturnsOriginalDecision) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  Ack first;
  f.send_report(dp, f.report(/*seq=*/5), &first);
  f.sim.run_until(sim::Time::from_seconds(10));
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.original_site);
  ASSERT_EQ(dp.counters().selections, 1u);

  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  ASSERT_GE(dp.counters().replay_dedup_entries, 1u);

  // The client's retry of the same (client, seq) after the crash must not
  // double-book: the replayed dedup window answers with the original site.
  Ack retry;
  f.send_report(dp, f.report(/*seq=*/5), &retry);
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(10));
  ASSERT_TRUE(retry.ok);
  EXPECT_EQ(retry.original_site, SiteId(0));
  EXPECT_EQ(dp.counters().dedup_hits, 1u);
  EXPECT_EQ(dp.counters().selections, 1u);
  EXPECT_EQ(dp.counters().duplicate_dispatches, 0u);
  EXPECT_EQ(f.free_estimate(dp), 60);  // booked once, not twice
  dp.stop();
}

// Regression for the double-dispatch bug the request-id trailer exists to
// kill: a client retry that re-brokers the same job. Without durability the
// broker books the job twice — USLA load and economy metering both double —
// and with the dedup window the retry collapses to one dispatch and one
// charge.
TEST(DurableDp, RetryDoubleCountsWithoutDedupAndCollapsesWithIt) {
  for (const bool durable : {false, true}) {
    Fixture f;
    DecisionPointOptions o = f.options(durable);
    o.economy.enabled = true;
    o.economy.allocator = economy::Allocator::kKarma;
    o.economy.capacity_cpus = 300.0;
    DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
    dp.bootstrap(f.snapshots());
    ASSERT_NE(dp.bank(), nullptr);

    f.send_report(dp, f.report(/*seq=*/9));
    f.sim.run_until(sim::Time::from_seconds(10));
    f.send_report(dp, f.report(/*seq=*/9));  // the retry
    f.sim.run_until(sim::Time::from_seconds(20));

    const double metered = dp.bank()->stats().ledgers.at(0).used_epoch;
    const double once = 40.0 * 5000.0;
    if (durable) {
      EXPECT_EQ(dp.counters().selections, 1u);
      EXPECT_EQ(dp.counters().dedup_hits, 1u);
      EXPECT_EQ(dp.counters().duplicate_dispatches, 0u);
      // Query as the idle VO: the karma gate has (rightly) cut off the
      // over-spent VO 0, but site load is global either way.
      EXPECT_EQ(f.free_estimate(dp, /*vo=*/1), 60);
      EXPECT_DOUBLE_EQ(metered, once);
    } else {
      EXPECT_EQ(dp.counters().selections, 2u);
      EXPECT_EQ(dp.counters().duplicate_dispatches, 1u);  // I12 audit sees the bug
      EXPECT_EQ(f.free_estimate(dp, /*vo=*/1), 20);
      EXPECT_DOUBLE_EQ(metered, 2 * once);
    }
    dp.stop();
  }
}

// Learned records take the same apply path as own ones: when a charge
// crosses an epoch boundary, its dispatch frame is logged before the
// settle cross-check frame, so replay re-drives the charge before it
// verifies the settlement.
TEST(DurableDp, LearnedRecordsLogDispatchBeforeEpochSettle) {
  Fixture f;
  DecisionPointOptions o = f.options();
  o.durability.checkpoint_interval = sim::Duration::hours(10);  // keep the log
  o.economy.enabled = true;
  o.economy.allocator = economy::Allocator::kKarma;
  o.economy.capacity_cpus = 300.0;
  DecisionPoint a(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  DecisionPoint b(f.sim, f.transport, DpId(1), f.catalog, f.tree, o);
  a.bootstrap(f.snapshots());
  b.bootstrap(f.snapshots());
  connect({&a, &b});
  auto report_every_40s_until = [&](double until_s) {
    while (f.sim.now() < sim::Time::from_seconds(until_s)) {
      f.send_report(a, f.report());
      f.sim.run_until(f.sim.now() + sim::Duration::seconds(40));
    }
  };

  // b learns a's records through the exchange rounds at 60, 120 and 180 s
  // (the 120 s round crosses the first 2-minute epoch boundary)...
  report_every_40s_until(200);
  ASSERT_GT(b.counters().records_applied, 0u);
  b.crash();
  // ...then misses a round while down and catches up after the restart,
  // in the third epoch.
  report_every_40s_until(300);
  b.restart(f.snapshots());
  f.sim.run_until(sim::Time::from_seconds(340));
  ASSERT_GT(b.counters().pull(PullReason::kCatchUp).applied, 0u);

  struct Frame {
    WalRecordType type;
    std::int64_t epoch = 0;  // dispatch: epoch of applied_at; settle: count
  };
  std::vector<Frame> frames;
  durable::wal_scan(b.disk()->log(),
                    [&](std::uint8_t type, std::span<const std::uint8_t> payload) {
                      Frame frame{WalRecordType(type)};
                      if (frame.type == WalRecordType::kDispatch) {
                        WalDispatch dispatch;
                        ASSERT_TRUE(net::wire::decode(payload, dispatch));
                        frame.epoch = dispatch.applied_at.us() / o.economy.epoch.us();
                      } else if (frame.type == WalRecordType::kEpochSettle) {
                        WalEpochSettle settle;
                        ASSERT_TRUE(net::wire::decode(payload, settle));
                        frame.epoch = std::int64_t(settle.epochs_settled);
                      }
                      frames.push_back(frame);
                    });
  int settles = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (frames[i].type != WalRecordType::kEpochSettle) continue;
    ++settles;
    ASSERT_GT(i, 0u);
    EXPECT_EQ(frames[i - 1].type, WalRecordType::kDispatch) << "frame " << i;
    // The frame right before the settle is the charge that crossed into
    // the settled epoch.
    EXPECT_EQ(frames[i - 1].epoch, frames[i].epoch) << "frame " << i;
  }
  EXPECT_GE(settles, 2);

  b.crash();
  b.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  EXPECT_EQ(b.counters().recoveries, 2u);
  EXPECT_EQ(b.counters().replay_mismatches, 0u);
  a.stop();
  b.stop();
}

// A 10-CPU record (origin 5, seq 1) reaches `dp` by exchange at 50 s; the
// next frame skips a round, and the catch-up pull it triggers brings a
// 30-CPU twin from a stand-in peer (dp9), which wins the view's merge and
// logs a second dispatch frame for the same (origin, seq).
class TwinPull {
 public:
  explicit TwinPull(Fixture& f) : f_(f), peer_(f.sim, f.transport, fast_profile()) {
    peer_.register_typed<PullRequest, PullReply>(
        kPull, [](const PullRequest&, NodeId) {
          PullReply reply;
          reply.from = DpId(9);
          reply.records = {record(30)};
          return std::make_pair(reply, sim::Duration::millis(1));
        });
  }

  static gruber::DispatchRecord record(std::int32_t cpus) {
    gruber::DispatchRecord r;
    r.origin = DpId(5);
    r.seq = 1;
    r.site = SiteId(0);
    r.vo = VoId(0);
    r.group = GroupId(0);
    r.user = UserId(0);
    r.cpus = cpus;
    r.when = sim::Time::from_seconds(10);
    r.est_runtime = sim::Duration::seconds(3600);
    return r;
  }

  /// Run `dp` to 58 s, by which the twin has replaced the first record.
  void run(DecisionPoint& dp) {
    dp.set_overlay_view({{DpId(9), peer_.node()}});
    ExchangeMessage first;
    first.from = DpId(9);
    first.exchange_round = 1;
    first.dispatches = {record(10)};
    ExchangeMessage gap = first;
    gap.exchange_round = 3;
    gap.dispatches.clear();
    f_.sim.schedule_at(sim::Time::from_seconds(50),
                       [&, first] { f_.rpc.notify(dp.node(), kExchange, first); });
    f_.sim.schedule_at(sim::Time::from_seconds(55),
                       [&, gap] { f_.rpc.notify(dp.node(), kExchange, gap); });
    f_.sim.run_until(sim::Time::from_seconds(58));
  }

 private:
  Fixture& f_;
  net::RpcServer peer_;
};

// Replay must end on the twin a pull logged, as the live view did, not on
// the record it replaced.
TEST(DurableDp, ReplayKeepsTheTwinAPullLogged) {
  Fixture f;
  DecisionPointOptions o = f.options();
  o.partition.enabled = true;  // so the restart runs no catch-up pull
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  dp.bootstrap(f.snapshots());
  TwinPull twin(f);
  twin.run(dp);
  ASSERT_EQ(dp.counters().pull(PullReason::kCatchUp).applied, 1u);
  const gruber::GridView& view = dp.engine().view();
  ASSERT_EQ(view.estimated_free(SiteId(0), f.sim.now()), 70);

  dp.crash();
  dp.restart(f.snapshots());
  EXPECT_EQ(view.estimated_free(SiteId(0), f.sim.now()), 70);
  EXPECT_EQ(dp.counters().replay_records, 1u);  // first-seen frames only
  EXPECT_EQ(dp.counters().replay_mismatches, 0u);
  dp.stop();
}

// The I11 audit compares each pre-crash record with the one the view holds
// after replay, not only its (origin, seq): when a torn tail loses the
// twin's frame, replay restores the 10-CPU record under the same key, and
// the audit counts it.
TEST(DurableDp, ReplayAuditCountsAWrongTwin) {
  Fixture f;
  DecisionPointOptions o = f.options();
  o.partition.enabled = true;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  dp.bootstrap(f.snapshots());
  TwinPull twin(f);
  twin.run(dp);
  const gruber::GridView& view = dp.engine().view();
  ASSERT_EQ(view.estimated_free(SiteId(0), f.sim.now()), 70);

  dp.inject_disk_tear();  // the last append: the twin's frame
  dp.crash();
  dp.restart(f.snapshots());
  EXPECT_EQ(dp.counters().replay_truncations, 1u);
  EXPECT_EQ(view.estimated_free(SiteId(0), f.sim.now()), 90);
  ASSERT_EQ(view.active_records(f.sim.now()),
            std::vector<gruber::DispatchRecord>{TwinPull::record(10)});
  EXPECT_EQ(dp.counters().replay_mismatches, 1u);
  dp.stop();
}

TEST(DurableDp, CheckpointTruncatesLogAndServesRecovery) {
  Fixture f;
  DecisionPointOptions o = f.options();
  o.durability.checkpoint_interval = sim::Duration::minutes(1);
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  dp.bootstrap(f.snapshots());

  f.send_report(dp, f.report());
  f.sim.run_until(sim::Time::from_seconds(150));
  EXPECT_GE(dp.disk()->counters().checkpoints_written, 1u);
  EXPECT_GE(dp.disk()->counters().log_truncations, 1u);

  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  EXPECT_EQ(dp.counters().recoveries, 1u);
  EXPECT_EQ(dp.counters().checkpoint_fallbacks, 0u);  // image restored, no fallback
  EXPECT_EQ(dp.counters().replay_mismatches, 0u);
  EXPECT_EQ(f.free_estimate(dp), 60);
  dp.stop();
}

TEST(DurableDp, TornTailTruncatesReplayButKeepsServing) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());

  f.send_report(dp, f.report());
  f.sim.run_until(sim::Time::from_seconds(10));
  dp.inject_disk_tear();
  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));

  EXPECT_EQ(dp.counters().recoveries, 1u);
  EXPECT_EQ(dp.counters().replay_truncations, 1u);
  EXPECT_GE(f.free_estimate(dp), 60);  // serves either way; lost tail is
                                       // anti-entropy's job in a mesh
  dp.stop();
}

TEST(DurableDp, IncarnationAdvancesMonotonicallyAcrossRecoveries) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, f.options());
  dp.bootstrap(f.snapshots());
  const std::uint32_t born = dp.incarnation();

  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  const std::uint32_t second = dp.incarnation();
  EXPECT_GT(second, born);

  dp.crash();
  dp.restart(f.snapshots());
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  EXPECT_GT(dp.incarnation(), second);
  EXPECT_EQ(dp.counters().recoveries, 2u);
  dp.stop();
}

TEST(DurableDp, DedupWindowStaysBounded) {
  Fixture f;
  DecisionPointOptions o = f.options();
  o.durability.dedup_window = 4;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree, o);
  dp.bootstrap(f.snapshots());

  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    ReportSelectionRequest r = f.report(seq);
    r.cpus = 1;
    f.send_report(dp, r);
    f.sim.run_until(f.sim.now() + sim::Duration::seconds(2));
  }
  ASSERT_EQ(dp.counters().selections, 8u);

  // seq=1 was evicted (window holds the last 4): a late retry re-books.
  ReportSelectionRequest old = f.report(1);
  old.cpus = 1;
  f.send_report(dp, old);
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  EXPECT_EQ(dp.counters().dedup_hits, 0u);
  EXPECT_EQ(dp.counters().selections, 9u);

  // seq=8 is still inside the window: the retry is collapsed.
  ReportSelectionRequest fresh = f.report(8);
  fresh.cpus = 1;
  f.send_report(dp, fresh);
  f.sim.run_until(f.sim.now() + sim::Duration::seconds(5));
  EXPECT_EQ(dp.counters().dedup_hits, 1u);
  EXPECT_EQ(dp.counters().selections, 9u);
  dp.stop();
}

TEST(DurableDp, DisabledDurabilityKeepsLegacyBehaviour) {
  Fixture f;
  DecisionPoint dp(f.sim, f.transport, DpId(0), f.catalog, f.tree,
                   f.options(/*durable=*/false));
  dp.bootstrap(f.snapshots());
  EXPECT_EQ(dp.disk(), nullptr);

  f.send_report(dp, f.report());
  f.sim.run_until(sim::Time::from_seconds(10));
  EXPECT_EQ(dp.counters().selections, 1u);
  EXPECT_EQ(dp.counters().recoveries, 0u);
  dp.stop();
}

}  // namespace
}  // namespace digruber::digruber
