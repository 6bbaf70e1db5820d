#include "cluster/malleable.hpp"

#include <gtest/gtest.h>

namespace mcsd::sim {
namespace {

const CpuModel kQuad{4, 1.0};
const CpuModel kDuo{2, 1.0};

TEST(Malleable, EmptyJobListIsInstant) {
  const auto r = schedule_malleable({}, kQuad);
  EXPECT_DOUBLE_EQ(r.makespan_seconds, 0.0);
}

TEST(Malleable, SingleSerialJob) {
  const auto r = schedule_malleable({{"s", 10.0, 0.0, 0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);
}

TEST(Malleable, SingleParallelJobUsesAllCores) {
  const auto r = schedule_malleable({{"p", 0.0, 40.0, 0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);  // 40 core-s / 4 cores
}

TEST(Malleable, MaxThreadsCapsAllocation) {
  const auto r = schedule_malleable({{"p", 0.0, 40.0, 2}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 20.0);  // only 2 of 4 cores usable
}

TEST(Malleable, CoreSpeedScalesParallelWork) {
  const CpuModel fast{4, 2.0};
  const auto r = schedule_malleable({{"p", 0.0, 40.0, 0}}, fast);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 5.0);
}

TEST(Malleable, SerialThenParallelSequence) {
  const auto r = schedule_malleable({{"sp", 4.0, 8.0, 0}}, kDuo);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 8.0);  // 4 serial + 8/2 parallel
}

TEST(Malleable, TwoEqualJobsShareCoresFairly) {
  const auto r = schedule_malleable(
      {{"a", 0.0, 20.0, 0}, {"b", 0.0, 20.0, 0}}, kQuad);
  // Each gets 2 cores: 20 / 2 = 10 s, both finish together.
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 10.0);
  EXPECT_DOUBLE_EQ(r.makespan_seconds, 10.0);
}

TEST(Malleable, SurvivorInheritsFreedCores) {
  const auto r = schedule_malleable(
      {{"short", 0.0, 8.0, 0}, {"long", 0.0, 40.0, 0}}, kQuad);
  // Phase 1: 2+2 cores.  Short finishes at 4 s (8/2).  Long has consumed
  // 8 of 40, then runs on 4 cores: 32/4 = 8 s more -> 12 s total.
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 4.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 12.0);
}

TEST(Malleable, CapFreesCoresForOthers) {
  const auto r = schedule_malleable(
      {{"capped", 0.0, 10.0, 1}, {"wide", 0.0, 30.0, 0}}, kQuad);
  // capped gets 1 core; wide gets the other 3: 30/3 = 10 s; both 10 s.
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 10.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 10.0);
}

TEST(Malleable, SerialJobDoesNotStallParallelPeer) {
  const auto r = schedule_malleable(
      {{"serial", 12.0, 0.0, 0}, {"parallel", 0.0, 12.0, 0}}, kQuad);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 12.0);
  // Parallel peer holds 2 cores while sharing: 12/2 = 6 s.
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 6.0);
}

TEST(Malleable, ThreeJobsOnFourCores) {
  const auto r = schedule_malleable(
      {{"a", 0.0, 12.0, 0}, {"b", 0.0, 12.0, 0}, {"c", 0.0, 12.0, 0}},
      kQuad);
  // 4/3 cores each: 12 / (4/3) = 9 s.
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 9.0, 1e-9);
}

TEST(Malleable, ZeroWorkJobFinishesAtZero) {
  const auto r = schedule_malleable(
      {{"noop", 0.0, 0.0, 0}, {"real", 5.0, 0.0, 0}}, kDuo);
  EXPECT_DOUBLE_EQ(r.finish_seconds[0], 0.0);
  EXPECT_DOUBLE_EQ(r.finish_seconds[1], 5.0);
}

TEST(Malleable, RejectsNegativeWork) {
  EXPECT_THROW(schedule_malleable({{"bad", -1.0, 0.0, 0}}, kDuo),
               std::invalid_argument);
}

TEST(Malleable, RejectsBadCpu) {
  EXPECT_THROW(schedule_malleable({{"j", 1.0, 1.0, 0}}, CpuModel{0, 1.0}),
               std::invalid_argument);
}

TEST(Malleable, MakespanIsMaxFinish) {
  const auto r = schedule_malleable(
      {{"a", 1.0, 0.0, 0}, {"b", 0.0, 100.0, 1}}, kQuad);
  EXPECT_DOUBLE_EQ(r.makespan_seconds, r.finish_seconds[1]);
}

// Regression for the serial-phase share bug: pre-fix, serial work burned
// at full wall rate no matter how small the job's core share was, so an
// over-subscribed set of pure-serial jobs all "finished" as if each had
// a whole core.  Serial progress must run at min(share, 1): eight
// serial jobs on four cores hold half a core each and take 20 s, not 10.
TEST(Malleable, OversubscribedSerialPhasesSerialize) {
  std::vector<MalleableJob> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back({"s" + std::to_string(i), 10.0, 0.0, 0});
  }
  const auto r = schedule_malleable(jobs, kQuad);
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 20.0, 1e-6);
  EXPECT_NEAR(r.makespan_seconds, 20.0, 1e-6);
}

TEST(Malleable, FractionalShareSlowsSerialPhaseBeforeParallel) {
  // Six identical serial+parallel jobs on a quad: share 2/3 each, so the
  // 2 s serial prefix stretches to 3 s, then 8 core-s of parallel work
  // at 2/3 core adds 12 s.
  std::vector<MalleableJob> jobs(6, MalleableJob{"j", 2.0, 8.0, 0});
  const auto r = schedule_malleable(jobs, kQuad);
  for (double f : r.finish_seconds) EXPECT_NEAR(f, 15.0, 1e-6);
}

TEST(FillShares, EqualSplitsEvenly) {
  std::vector<ShareSlot> slots(4);
  for (auto& s : slots) s.cap = 8.0;
  fill_shares(slots, 4.0, ShareMode::kEqualShare);
  for (const auto& s : slots) EXPECT_NEAR(s.share, 1.0, 1e-12);
}

TEST(FillShares, EqualRecyclesCapSurplus) {
  std::vector<ShareSlot> slots(3);
  slots[0].cap = 0.5;  // capped claimant frees 1/3 of a core
  slots[1].cap = 8.0;
  slots[2].cap = 8.0;
  fill_shares(slots, 4.0, ShareMode::kEqualShare);
  EXPECT_NEAR(slots[0].share, 0.5, 1e-12);
  EXPECT_NEAR(slots[1].share, 1.75, 1e-12);
  EXPECT_NEAR(slots[2].share, 1.75, 1e-12);
}

TEST(FillShares, ProportionalFollowsWeights) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {8.0, 3.0, 0.0};
  slots[1] = {8.0, 1.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_NEAR(slots[0].share, 3.0, 1e-12);
  EXPECT_NEAR(slots[1].share, 1.0, 1e-12);
}

TEST(FillShares, ProportionalRespectsCapsAndRecycles) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {1.0, 100.0, 0.0};  // heavy but capped at one core
  slots[1] = {8.0, 1.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_NEAR(slots[0].share, 1.0, 1e-12);
  EXPECT_NEAR(slots[1].share, 3.0, 1e-12);
}

TEST(FillShares, ZeroWeightGetsNothingUnderProportional) {
  std::vector<ShareSlot> slots(2);
  slots[0] = {8.0, 0.0, 0.0};
  slots[1] = {8.0, 2.0, 0.0};
  fill_shares(slots, 4.0, ShareMode::kProportional);
  EXPECT_DOUBLE_EQ(slots[0].share, 0.0);
  EXPECT_NEAR(slots[1].share, 4.0, 1e-12);
}

}  // namespace
}  // namespace mcsd::sim
