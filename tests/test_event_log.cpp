// Lifecycle event log: recording, text round-trip, and the §V-B co-start
// verification computed from logs alone.
#include "core/event_log.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core_test_util.h"

namespace cosched {
namespace {

using testutil::job;
using testutil::two_domains;

JobEvent ev(Time t, const std::string& sys, JobEventKind k, JobId id,
            GroupId g = kNoGroup, NodeCount n = 1) {
  JobEvent e;
  e.time = t;
  e.system = sys;
  e.kind = k;
  e.job = id;
  e.group = g;
  e.nodes = n;
  return e;
}

TEST(EventLog, RecordsInOrder) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1));
  log.record(ev(5, "a", JobEventKind::kStart, 1));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].kind, JobEventKind::kSubmit);
  EXPECT_EQ(log.events()[1].time, 5);
}

TEST(EventLog, OfKindFilters) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1));
  log.record(ev(1, "a", JobEventKind::kYield, 1));
  log.record(ev(2, "a", JobEventKind::kYield, 1));
  log.record(ev(3, "a", JobEventKind::kStart, 1));
  EXPECT_EQ(log.of_kind(JobEventKind::kYield).size(), 2u);
  EXPECT_EQ(log.of_kind(JobEventKind::kHold).size(), 0u);
}

TEST(EventLog, TextRoundTrip) {
  EventLog log;
  log.record(ev(0, "intrepid", JobEventKind::kSubmit, 42, 7, 512));
  log.record(ev(120, "eureka", JobEventKind::kHold, 99, 7, 16));
  log.record(ev(1320, "eureka", JobEventKind::kHoldRelease, 99, 7, 16));
  log.record(ev(2000, "intrepid", JobEventKind::kStart, 42, 7, 512));
  std::ostringstream out;
  log.write_text(out);
  std::istringstream in(out.str());
  const EventLog back = EventLog::read_text(in);
  ASSERT_EQ(back.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(back.events()[i], log.events()[i]);
}

TEST(EventLog, ReadSkipsCommentsAndRejectsGarbage) {
  {
    std::istringstream in("# comment\n\n0 a start job=1 group=-1 nodes=4\n");
    EXPECT_EQ(EventLog::read_text(in).size(), 1u);
  }
  {
    std::istringstream in("0 a explode job=1 group=-1 nodes=4\n");
    EXPECT_THROW(EventLog::read_text(in), ParseError);
  }
  {
    std::istringstream in("0 a start job=1\n");
    EXPECT_THROW(EventLog::read_text(in), ParseError);
  }
  {
    std::istringstream in("0 a start group=1 job=-1 nodes=4\n");
    EXPECT_THROW(EventLog::read_text(in), ParseError);
  }
  // Field values must be whole 64-bit integers.
  for (const char* job : {"job=abc", "job=99999999999999999999", "job=12x",
                          "job="}) {
    std::istringstream in(std::string("0 a start ") + job +
                          " group=-1 nodes=4\n");
    EXPECT_THROW(EventLog::read_text(in), ParseError) << job;
  }
}

TEST(VerifyCoStarts, PerfectGroups) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1, 7));
  log.record(ev(0, "b", JobEventKind::kSubmit, 2, 7));
  log.record(ev(50, "a", JobEventKind::kStart, 1, 7));
  log.record(ev(50, "b", JobEventKind::kStart, 2, 7));
  const CoStartReport r = verify_co_starts(log);
  EXPECT_EQ(r.groups_total, 1u);
  EXPECT_EQ(r.groups_co_started, 1u);
  EXPECT_TRUE(r.all_co_started());
  EXPECT_EQ(r.max_skew, 0);
}

TEST(VerifyCoStarts, SkewDetected) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1, 7));
  log.record(ev(0, "b", JobEventKind::kSubmit, 2, 7));
  log.record(ev(50, "a", JobEventKind::kStart, 1, 7));
  log.record(ev(80, "b", JobEventKind::kStart, 2, 7));
  const CoStartReport r = verify_co_starts(log);
  EXPECT_EQ(r.groups_co_started, 0u);
  EXPECT_EQ(r.max_skew, 30);
  EXPECT_FALSE(r.all_co_started());
}

TEST(VerifyCoStarts, MissingMemberIsIncomplete) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1, 7));
  log.record(ev(0, "b", JobEventKind::kSubmit, 2, 7));
  log.record(ev(50, "a", JobEventKind::kStart, 1, 7));
  const CoStartReport r = verify_co_starts(log);
  EXPECT_EQ(r.groups_incomplete, 1u);
  EXPECT_FALSE(r.all_co_started());
}

TEST(VerifyCoStarts, UnpairedJobsIgnored) {
  EventLog log;
  log.record(ev(0, "a", JobEventKind::kSubmit, 1));
  log.record(ev(5, "a", JobEventKind::kStart, 1));
  const CoStartReport r = verify_co_starts(log);
  EXPECT_EQ(r.groups_total, 0u);
  EXPECT_TRUE(r.all_co_started());
}

// Full-pipeline check: a coupled simulation records every lifecycle stage,
// and the paper's §V-B claim holds when verified from the log text.
TEST(EventLogIntegration, CoupledSimRecordsAndVerifies) {
  auto specs = two_domains(kHH);
  Trace a, b;
  a.add(job(1, 0, 600, 50, 7));
  b.add(job(10, 400, 600, 30, 7));
  a.add(job(2, 5, 300, 20));
  CoupledSim sim(specs, {a, b});
  EventLog& log = sim.enable_event_log();
  const SimResult r = sim.run();
  ASSERT_TRUE(r.completed);

  // Submit/start/finish recorded for all three jobs.
  EXPECT_EQ(log.of_kind(JobEventKind::kSubmit).size(), 3u);
  EXPECT_EQ(log.of_kind(JobEventKind::kStart).size(), 3u);
  EXPECT_EQ(log.of_kind(JobEventKind::kFinish).size(), 3u);
  // The held pair recorded its hold.
  EXPECT_GE(log.of_kind(JobEventKind::kHold).size(), 1u);
  // Ready recorded once per job, not per scheduling attempt.
  EXPECT_EQ(log.of_kind(JobEventKind::kReady).size(), 3u);

  // Round-trip through text, then verify co-starts from the file alone.
  std::ostringstream out;
  log.write_text(out);
  std::istringstream in(out.str());
  const CoStartReport report = verify_co_starts(EventLog::read_text(in));
  EXPECT_EQ(report.groups_total, 1u);
  EXPECT_TRUE(report.all_co_started());
}

}  // namespace
}  // namespace cosched
