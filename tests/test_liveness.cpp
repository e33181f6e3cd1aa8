// Liveness layer: phi-accrual failure detection, leased holds with fencing
// (core/liveness.h), and their integration into Algorithm 1 — the principled
// form of the paper's §IV-C fault rule ("a job will not wait forever when
// the remote machine or its mate job is down").
#include <gtest/gtest.h>

#include "core/liveness.h"
#include "core_test_util.h"
#include "proto/durable.h"
#include "util/error.h"

namespace cosched {
namespace {

using testutil::find_job;
using testutil::job;
using testutil::two_domains;

constexpr double kSuspectPhi = 1.5;
constexpr double kConfirmPhi = 4.0;

// -- FailureDetector --------------------------------------------------------

TEST(FailureDetector, ColdDetectorIsQuietUntilProbed) {
  FailureDetector d(30 * kSecond, 0);
  // Never heard from AND never asked: silence accumulated before anyone
  // probed must not count as evidence of death.
  EXPECT_DOUBLE_EQ(d.phi(100 * kDay), 0.0);
  EXPECT_EQ(d.health(100 * kDay, kSuspectPhi, kConfirmPhi),
            PeerHealth::kAlive);
  EXPECT_DOUBLE_EQ(d.mean_interval(), 30.0);
}

TEST(FailureDetector, ProbeRebaselinesSilenceClock) {
  FailureDetector d(30 * kSecond, 0);
  d.mark_probe(100);
  EXPECT_DOUBLE_EQ(d.phi(100), 0.0);
  // phi = log10(e) * silence / mean: 30 s of silence at a 30 s period.
  EXPECT_NEAR(d.phi(130), 0.4343, 1e-3);
  EXPECT_EQ(d.health(150, kSuspectPhi, kConfirmPhi), PeerHealth::kAlive);
  // ~104 s of silence crosses 1.5; ~276 s crosses 4.0.
  EXPECT_EQ(d.health(100 + 110, kSuspectPhi, kConfirmPhi),
            PeerHealth::kSuspect);
  EXPECT_EQ(d.health(100 + 280, kSuspectPhi, kConfirmPhi), PeerHealth::kDead);
}

TEST(FailureDetector, ProbeIsIdempotent) {
  FailureDetector d(30 * kSecond, 0);
  d.mark_probe(100);
  const double before = d.phi(600);
  d.mark_probe(500);  // must NOT re-baseline: probing already began at 100
  EXPECT_DOUBLE_EQ(d.phi(600), before);
}

TEST(FailureDetector, HeartbeatsResetSuspicion) {
  FailureDetector d(30 * kSecond, 0);
  d.mark_probe(70);
  d.record_heartbeat(100);
  d.record_heartbeat(130);
  d.record_heartbeat(160);
  EXPECT_EQ(d.heartbeats_seen(), 3u);
  EXPECT_EQ(d.last_heard(), 160);
  EXPECT_DOUBLE_EQ(d.mean_interval(), 30.0);  // observed gaps match the seed
  EXPECT_DOUBLE_EQ(d.phi(160), 0.0);
  EXPECT_NEAR(d.phi(190), 0.4343, 1e-3);
  EXPECT_EQ(d.health(190, kSuspectPhi, kConfirmPhi), PeerHealth::kAlive);
}

TEST(FailureDetector, WindowAdaptsToObservedCadence) {
  FailureDetector d(30 * kSecond, 0);
  // 20 arrivals every 10 s: the bounded window keeps the most recent 16
  // gaps plus one virtual sample of the configured period.
  for (Time t = 0; t <= 200; t += 10) d.record_heartbeat(t);
  EXPECT_NEAR(d.mean_interval(), (16.0 * 10.0 + 30.0) / 17.0, 1e-9);
  // A faster cadence means the same silence is more suspicious.
  EXPECT_GT(d.phi(260), 2.0);
}

TEST(FailureDetector, SnapshotRestoreRoundTrip) {
  FailureDetector d(30 * kSecond, 12);
  d.mark_probe(40);
  for (Time t = 100; t <= 400; t += 25) d.record_heartbeat(t);
  WireWriter w;
  put(w, d);

  FailureDetector back(99 * kSecond, 777);  // every field must be overwritten
  WireReader r(w.bytes());
  get(r, back);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(back.last_heard(), d.last_heard());
  EXPECT_EQ(back.heartbeats_seen(), d.heartbeats_seen());
  EXPECT_DOUBLE_EQ(back.mean_interval(), d.mean_interval());
  for (Time t : {Time{400}, Time{450}, Time{700}})
    EXPECT_DOUBLE_EQ(back.phi(t), d.phi(t));
}

TEST(FailureDetector, RestoreRejectsOversizedWindow) {
  WireWriter w;
  w.put_i64(30);       // expected_interval
  w.put_i64(0);        // epoch
  w.put_i64(kNoTime);  // last_heard
  w.put_bool(false);   // probed
  w.put_u64(0);        // heartbeats_seen
  w.put_u64(17);       // gap count > kWindow: corrupt snapshot
  for (int i = 0; i < 17; ++i) w.put_i64(30);
  FailureDetector d(30 * kSecond, 0);
  WireReader r(w.bytes());
  EXPECT_THROW(get(r, d), ParseError);
}

// -- HoldLease and fencing tokens -------------------------------------------

TEST(HoldLease, SnapshotRoundTrip) {
  HoldLease l;
  l.job = 4711;
  l.peer = 1;
  l.granted_at = 300;
  l.expires_at = 600;
  l.token = make_fence_token(3, 9);
  l.renewals = 5;
  WireWriter w;
  put(w, l);
  WireReader r(w.bytes());
  HoldLease back;
  get(r, back);
  EXPECT_EQ(back, l);
  EXPECT_TRUE(r.exhausted());
}

TEST(FenceToken, OrdersAcrossExpiriesAndRestarts) {
  // Within one incarnation, every expiry mints a greater token.
  EXPECT_GT(make_fence_token(1, 5), make_fence_token(1, 4));
  // A restart outranks every token of the previous life, whatever its
  // expiry counter had reached.
  EXPECT_GT(make_fence_token(2, 0), make_fence_token(1, 0xFFFFFFFFu));
  EXPECT_EQ(make_fence_token(1, 0), std::uint64_t{1} << 32);
}

// -- Cluster integration ----------------------------------------------------

std::vector<DomainSpec> liveness_domains(SchemeCombo combo,
                                         Duration lease = 5 * kMinute) {
  auto specs = two_domains(combo);
  for (auto& s : specs) {
    s.cosched.liveness.enabled = true;
    s.cosched.liveness.lease_duration = lease;
  }
  return specs;
}

TEST(Liveness, HealthyMateRenewsLeaseAndCoStarts) {
  auto specs = liveness_domains(kHH);
  Trace a, b;
  a.add(job(1, 60, 600, 10, 7));
  b.add(job(1001, 10 * kMinute, 600, 10, 7));  // mate arrives 9 min later
  CoupledSim sim(specs, {a, b});
  const SimResult r = sim.run(30 * kDay);

  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.invariants.ok()) << r.invariants.violations.size();
  // alpha held job 1 under a lease the whole wait: granted once, renewed on
  // every heartbeat ack from the (healthy) blocking peer, never expired.
  EXPECT_EQ(sim.cluster(0).lease_grants(), 1u);
  EXPECT_GT(sim.cluster(0).lease_renewals(), 5u);
  EXPECT_EQ(sim.cluster(0).lease_expiries(), 0u);
  EXPECT_TRUE(sim.cluster(0).leases().empty());  // closed by the start
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(sim.cluster(d).unsync_starts(), 0u);
    EXPECT_GT(sim.cluster(d).heartbeats_acked(), 0u);
  }
  // The pair co-started at the mate's arrival.
  EXPECT_EQ(find_job(sim, 0, 1).start, find_job(sim, 1, 1001).start);
}

TEST(Liveness, DeadMateEventuallyStartsUnsynchronized) {
  // Satellite regression: a job holding for a permanently dead mate domain
  // must start unsynchronized, under every scheme combination, with node
  // accounting intact.  beta crashes at t=30 and never restarts; alpha's
  // paired job arrives while the detector already suspects beta (so hold
  // schemes grant a lease that then expires) and beta's own mate arrives
  // hours later, starting unsynchronized on its side too.
  for (const SchemeCombo& combo : kAllCombos) {
    SCOPED_TRACE(combo.label);
    auto specs = liveness_domains(combo);
    Trace a, b;
    a.add(job(90, 5, 60, 5));         // filler: arms alpha's heartbeats early
    a.add(job(1, 150, 600, 10, 7));   // paired; beta is suspect by now
    b.add(job(1001, 10 * kHour, 600, 10, 7));
    CoupledSim sim(specs, {a, b});
    sim.schedule_domain_crash(1, 30, /*restart_at=*/0);
    const SimResult r = sim.run(30 * kDay);

    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.invariants.ok());
    EXPECT_GE(sim.cluster(0).unsync_starts(), 1u);
    EXPECT_GE(sim.cluster(1).unsync_starts(), 1u);
    // The suspect phase held/yielded instead of firing the fault rule.
    EXPECT_GE(sim.cluster(0).suspected_status_decisions(), 1u);
    if (combo.first == Scheme::kHold) {
      // The lease expired (well before the 20-min breaker) and converted
      // the hold into an unsynchronized start.
      EXPECT_GE(sim.cluster(0).lease_grants(), 1u);
      EXPECT_GE(sim.cluster(0).lease_expiries(), 1u);
    }
    for (std::size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(sim.cluster(d).scheduler().pool().busy(), 0);
      EXPECT_EQ(sim.cluster(d).scheduler().pool().held(), 0);
      EXPECT_TRUE(sim.cluster(d).leases().empty());
      EXPECT_EQ(sim.cluster(d).stale_fence_starts(), 0u);
    }
  }
}

TEST(Liveness, LeaseExpiryAdvancesFenceEpochAndRejectsStaleStarts) {
  // One-way partition: beta can no longer reach alpha, so beta's lease on
  // its holding job expires and bumps beta's fencing epoch.  A caller still
  // presenting the pre-expiry token (a partitioned-then-healed peer) must
  // be rejected at the fence instead of double-starting the job.
  auto specs = liveness_domains(kHH, /*lease=*/2 * kMinute);
  Trace a, b;
  a.add(job(1, 20 * kDay, 600, 10, 7));  // far future: beta's job holds
  b.add(job(1001, 60, 600, 10, 7));
  CoupledSim sim(specs, {a, b});
  sim.add_one_way_partition(1, 0, 90, 100 * kDay);
  sim.engine().run_until(20 * kMinute);

  const std::uint64_t stale = make_fence_token(1, 0);
  EXPECT_GE(sim.cluster(1).lease_expiries(), 1u);
  EXPECT_GT(sim.cluster(1).fence_epoch(), stale);

  // Stale-fenced side-effecting call: rejected at the gate, not executed.
  sim.link(0, 1).set_fence_token(stale);
  auto rejected = sim.link(0, 1).try_start_mate(1001);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(*rejected);
  EXPECT_EQ(sim.cluster(1).stale_fence_rejections(), 1u);
  EXPECT_EQ(sim.cluster(1).stale_fence_starts(), 0u);

  // The same call under the current epoch passes the fence (and is then
  // judged on its merits by Algorithm 1, with no stale-fence accounting).
  sim.link(0, 1).set_fence_token(sim.cluster(1).fence_epoch());
  auto admitted = sim.link(0, 1).try_start_mate(1001);
  ASSERT_TRUE(admitted.has_value());
  EXPECT_EQ(sim.cluster(1).stale_fence_rejections(), 1u);
  EXPECT_EQ(sim.cluster(1).stale_fence_starts(), 0u);
}

TEST(Liveness, HeartbeatsPiggybackRemoteSchedulerState) {
  auto specs = liveness_domains(kHH);
  Trace a, b;
  a.add(job(1, 5, 2 * kHour, 10));
  // beta: one runs, two must queue (60 + 60 > 100 nodes free).
  b.add(job(1001, 5, 2 * kHour, 60));
  b.add(job(1002, 5, 2 * kHour, 60));
  b.add(job(1003, 5, 2 * kHour, 60));
  CoupledSim sim(specs, {a, b});
  sim.engine().run_until(2 * kMinute);

  EXPECT_GT(sim.cluster(0).heartbeats_sent(), 0u);
  EXPECT_GT(sim.cluster(0).heartbeats_acked(), 0u);
  const HeartbeatInfo& info = sim.cluster(0).peer_info(0);
  EXPECT_EQ(info.incarnation, sim.cluster(1).incarnation());
  EXPECT_EQ(info.fence, sim.cluster(1).fence_epoch());
  EXPECT_EQ(info.queue_depth, 2u);
  EXPECT_DOUBLE_EQ(info.hold_fraction, 0.0);
  EXPECT_EQ(sim.cluster(0).peer_health(0), PeerHealth::kAlive);
}

}  // namespace
}  // namespace cosched
