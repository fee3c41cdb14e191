// Micro-benchmarks for the partition-tolerance hot paths: the settled-
// window view digest rides on EVERY exchange round and site-loads reply,
// divergence targeting and record merges run on every anti-entropy pull,
// and the CRC-32C trailer is paid per frame once checksums are on — so
// their costs bound how cheap "partition tolerance enabled" can be.
#include <benchmark/benchmark.h>

#include "digruber/common/rng.hpp"
#include "digruber/digruber/protocol.hpp"
#include "digruber/gruber/view.hpp"
#include "digruber/net/wire/crc32c.hpp"
#include "digruber/net/wire/frame.hpp"

using namespace digruber;
using ::digruber::digruber::GetSiteLoadsReply;
using ::digruber::digruber::Method;

namespace {

constexpr std::size_t kSites = 120;

std::vector<grid::SiteSnapshot> make_bases() {
  Rng rng(31);
  std::vector<grid::SiteSnapshot> bases;
  bases.reserve(kSites);
  for (std::size_t i = 0; i < kSites; ++i) {
    grid::SiteSnapshot s;
    s.site = SiteId(i);
    s.total_cpus = std::int32_t(64 + rng.uniform_index(512));
    s.free_cpus = s.total_cpus;
    bases.push_back(std::move(s));
  }
  return bases;
}

gruber::DispatchRecord make_record(Rng& rng, std::uint64_t seq) {
  gruber::DispatchRecord r;
  r.origin = DpId(rng.uniform_index(5));
  r.seq = seq;
  r.site = SiteId(rng.uniform_index(kSites));
  r.vo = VoId(rng.uniform_index(8));
  r.group = GroupId(rng.uniform_index(40));
  r.user = UserId(rng.uniform_index(200));
  r.cpus = std::int32_t(1 + rng.uniform_index(4));
  r.when = sim::Time::from_seconds(double(seq % 600));
  r.est_runtime = sim::Duration::seconds(1800);
  return r;
}

gruber::GridView make_view(std::size_t n_records, std::uint64_t seed) {
  gruber::GridView view;
  view.bootstrap(make_bases());
  Rng rng(seed);
  for (std::size_t i = 0; i < n_records; ++i) {
    view.record_dispatch(make_record(rng, i));
  }
  return view;
}

// Window covering every record above: when <= 600 < as_of, expiry > horizon.
const sim::Time kAsOf = sim::Time::from_seconds(700.0);
const sim::Time kHorizon = sim::Time::from_seconds(705.0);

// One window asked again and again of a static view: after the first call
// the digest revisits no site, so this measures emitting the aggregate.
// BM_ViewDigestSliding below measures the per-reply path.
void BM_ViewDigest(benchmark::State& state) {
  const gruber::GridView view = make_view(std::size_t(state.range(0)), 7);
  for (auto _ : state) {
    const gruber::ViewDigest digest = view.digest(kAsOf, kHorizon);
    benchmark::DoNotOptimize(digest.base_hash);
    benchmark::DoNotOptimize(digest.vos.data());
  }
  state.counters["records"] = double(state.range(0));
}
BENCHMARK(BM_ViewDigest)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ViewDigestSliding(benchmark::State& state) {
  // The per-reply path: each iteration moves time on one step, records one
  // record and digests the settled window a point with every subsystem on
  // attaches to a reply, (now - 185 s, now + 5 s). Records live N steps on
  // average and pruning their site on arrival keeps about N held.
  const std::size_t n = std::size_t(state.range(0));
  const sim::Duration step = sim::Duration::millis(500);
  gruber::GridView view;
  view.bootstrap(make_bases());
  Rng rng(7);
  std::uint64_t seq = 0;
  sim::Time now = sim::Time::zero();
  const auto arrive = [&] {
    now = now + step;
    gruber::DispatchRecord r = make_record(rng, seq++);
    r.when = now;
    r.est_runtime = step * (double(n) * rng.uniform(0.5, 1.5));
    view.record_dispatch(r);
    benchmark::DoNotOptimize(view.estimated_free(r.site, now));
  };
  const auto settled = [&] {
    return view.digest(now - sim::Duration::seconds(185),
                       now + sim::Duration::seconds(5));
  };
  for (std::size_t i = 0; i < 2 * n; ++i) arrive();  // reach steady state
  benchmark::DoNotOptimize(settled().base_hash);
  for (auto _ : state) {
    arrive();
    const gruber::ViewDigest digest = settled();
    benchmark::DoNotOptimize(digest.vos.data());
  }
  state.counters["records"] = double(n);
}
BENCHMARK(BM_ViewDigestSliding)->Arg(1000)->Arg(10000);

void BM_DivergedVos(benchmark::State& state) {
  // Two views sharing most records but diverged on one origin's tail —
  // the shape a healed split actually presents.
  const std::size_t n = std::size_t(state.range(0));
  const gruber::GridView a = make_view(n, 7);
  gruber::GridView b = make_view(n, 7);
  Rng rng(91);
  for (std::size_t i = 0; i < n / 10 + 1; ++i) {
    b.record_dispatch(make_record(rng, 1'000'000 + i));
  }
  const gruber::ViewDigest da = a.digest(kAsOf, kHorizon);
  const gruber::ViewDigest db = b.digest(kAsOf, kHorizon);
  for (auto _ : state) {
    const std::vector<VoId> vos = gruber::diverged_vos(da, db);
    benchmark::DoNotOptimize(vos.data());
  }
}
BENCHMARK(BM_DivergedVos)->Arg(100)->Arg(1000)->Arg(10000);

void BM_DeltaMergeDuplicate(benchmark::State& state) {
  // Steady-state anti-entropy cost: most pulled records are already held,
  // so the common merge outcome is the content-dedup drop.
  const std::size_t n = std::size_t(state.range(0));
  gruber::GridView view = make_view(n, 7);
  Rng rng(7);
  std::vector<gruber::DispatchRecord> records;
  for (std::size_t i = 0; i < n; ++i) records.push_back(make_record(rng, i));
  const sim::Time now = sim::Time::from_seconds(650.0);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto merged = view.merge_record(records[i], now);
    benchmark::DoNotOptimize(merged.applied);
    i = (i + 1) % records.size();
  }
  state.counters["records"] = double(n);
}
BENCHMARK(BM_DeltaMergeDuplicate)->Arg(100)->Arg(1000);

void BM_RecordsForVos(benchmark::State& state) {
  // The delta-pull serve path: collect the records of the diverged VOs.
  const gruber::GridView view = make_view(std::size_t(state.range(0)), 7);
  const std::vector<VoId> vos{VoId(1), VoId(4), VoId(6)};
  const sim::Time now = sim::Time::from_seconds(650.0);
  for (auto _ : state) {
    const auto records = view.records_for_vos(vos, now);
    benchmark::DoNotOptimize(records.data());
  }
}
BENCHMARK(BM_RecordsForVos)->Arg(1000)->Arg(10000);

void BM_Crc32c(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::uint8_t> data(std::size_t(state.range(0)));
  for (auto& b : data) b = std::uint8_t(rng.uniform_index(256));
  for (auto _ : state) {
    const std::uint32_t crc = net::wire::crc32c(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(std::int64_t(data.size()) * state.iterations());
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ChecksumFrameRoundtrip(benchmark::State& state) {
  // v3 frame build + verify against the v1 cost in micro_wire's
  // BM_FrameRoundtrip: the delta is the full per-frame checksum tax.
  Rng rng(17);
  GetSiteLoadsReply reply;
  for (std::size_t i = 0; i < 300; ++i) {
    gruber::SiteLoad load;
    load.site = SiteId(i);
    load.total_cpus = std::int32_t(rng.uniform_index(4096));
    load.free_estimate = std::int32_t(rng.uniform_index(2048));
    load.raw_free = load.free_estimate;
    load.queued = std::int32_t(rng.uniform_index(64));
    reply.candidates.push_back(load);
  }
  for (auto _ : state) {
    const net::Buffer frame = net::wire::make_frame(
        Method::kGetSiteLoads, net::wire::FrameKind::kReply, 42, reply,
        /*deadline_us=*/0, /*checksum=*/true);
    net::wire::FrameHeader header;
    net::Buffer body;
    const auto parsed = net::wire::parse_frame_ex(frame, header, body);
    benchmark::DoNotOptimize(parsed);
    benchmark::DoNotOptimize(body.data());
  }
}
BENCHMARK(BM_ChecksumFrameRoundtrip);

}  // namespace

BENCHMARK_MAIN();
