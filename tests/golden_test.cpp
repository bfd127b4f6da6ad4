// Golden answer gate: every paper profile, at two small scales, with
// reconfiguration off and on, must reproduce a pinned digest of its final
// architecture and schedule, and the search effort that found it (schedule
// evaluations charged to the budget, repair moves).  A refactor of the
// engine may not move these by accident; an intentional answer change
// re-pins them and records why in EXPERIMENTS.md.
//
// The digest is FNV-1a over the checkpoint encoding of the architecture
// followed by every task's start and finish time, the same answer digest
// perfbench pins (the 150-task rows equal its paper-small golden entries).
// 150 tasks exercises allocation and evacuation; 300 tasks also engages the
// repair loop on most profiles.  Further rows pin CRUSADE-FT, runs whose
// evaluation budget runs out mid-allocation, and (disabled by default)
// two large repair-bound instances.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
#include "ft/crusade_ft.hpp"
#include "tgff/generator.hpp"
#include "tgff/profiles.hpp"

namespace crusade {
namespace {

const ResourceLibrary& lib() {
  static const ResourceLibrary l = telecom_1999();
  return l;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string answer_digest(const CrusadeResult& r) {
  ckpt::BinWriter w;
  ckpt::write_architecture(w, r.arch);
  w.vec_i64(r.schedule.task_start);
  w.vec_i64(r.schedule.task_finish);
  return hex64(ckpt::fnv1a(w.bytes()));
}

Specification profile_spec(const std::string& profile, int tasks) {
  const ExampleProfile p = profile_by_name(profile);
  SpecGenerator gen(lib());
  return gen.generate(profile_config(p, static_cast<double>(tasks) / p.tasks));
}

CrusadeResult synthesize(const std::string& profile, int tasks,
                         bool reconfig) {
  CrusadeParams params;
  params.enable_reconfig = reconfig;
  return Crusade(profile_spec(profile, tasks), lib(), params).run();
}

struct GoldenCase {
  const char* profile;
  int tasks;
  bool reconfig;
  const char* digest;
  int sched_evals;
  int repair_moves;
};

const GoldenCase kGolden[] = {
    {"A1TR", 150, false, "c9449611b2297e20", 112, 0},
    {"A1TR", 150, true, "a9fa3616e1eeaea8", 114, 0},
    {"VDRTX", 150, false, "d5b7dbcef8a48b69", 111, 1},
    {"VDRTX", 150, true, "0e181808db9ffca6", 102, 0},
    {"HROST", 150, false, "9d89f41031d6183b", 117, 0},
    {"HROST", 150, true, "a20089d169ffc5f7", 120, 0},
    {"EST189A", 150, false, "5c91418b366d973a", 118, 0},
    {"EST189A", 150, true, "e4e073a4f5615abf", 118, 0},
    {"HRXC", 150, false, "b28def04fda0a8ca", 111, 0},
    {"HRXC", 150, true, "08669ab3a3f0b45f", 115, 0},
    {"ADMR", 150, false, "836d9a080ecf3587", 132, 0},
    {"ADMR", 150, true, "70e2d9d3edb3b3e6", 132, 0},
    {"B192G", 150, false, "fb6e7f24430c7795", 119, 0},
    {"B192G", 150, true, "0f06932aa02817c1", 119, 0},
    {"NGXM", 150, false, "c6ba41212dd9804f", 135, 0},
    {"NGXM", 150, true, "a829b4d4571ee4f7", 136, 0},
    {"A1TR", 300, false, "8c5cd54476f5f9d3", 370, 2},
    {"A1TR", 300, true, "35225dc0a04a43f6", 567, 3},
    {"VDRTX", 300, false, "55eb982413036c10", 230, 1},
    {"VDRTX", 300, true, "bcf1424ca5bf36e8", 229, 1},
    {"HROST", 300, false, "5acdf7d10d27dfe3", 234, 0},
    {"HROST", 300, true, "3b8934482a1d9ddb", 234, 0},
    {"EST189A", 300, false, "157fc54a1a4476ec", 296, 1},
    {"EST189A", 300, true, "566fcc00a8830723", 297, 1},
    {"HRXC", 300, false, "398b4b644402113b", 298, 2},
    {"HRXC", 300, true, "4363ab13f6f772e3", 288, 2},
    {"ADMR", 300, false, "e6bbc5a64f3aceb9", 795, 1},
    {"ADMR", 300, true, "888009598904ea22", 255, 0},
    {"B192G", 300, false, "537339ccc3aecde6", 247, 0},
    {"B192G", 300, true, "34dc3b22d9f2e752", 250, 0},
    {"NGXM", 300, false, "e15c1bcc4627341d", 319, 3},
    {"NGXM", 300, true, "e113db902637de44", 322, 3},
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.profile << "-" << c.tasks << (c.reconfig ? ".rc" : ".norc");
}

class GoldenAnswer : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenAnswer, DigestMatchesPin) {
  const GoldenCase& c = GetParam();
  const CrusadeResult r = synthesize(c.profile, c.tasks, c.reconfig);
  EXPECT_EQ(answer_digest(r), c.digest);
  EXPECT_EQ(r.stats.sched_evals, c.sched_evals);
  EXPECT_EQ(r.stats.repair_moves, c.repair_moves);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, GoldenAnswer, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.profile) + "_" +
             std::to_string(info.param.tasks) + "_" +
             (info.param.reconfig ? "rc" : "norc");
    });

TEST(GoldenCorpus, CoversEveryPaperProfileBothWays) {
  for (const ExampleProfile& p : paper_profiles())
    for (const bool reconfig : {false, true}) {
      int rows = 0;
      for (const GoldenCase& c : kGolden)
        if (c.profile == p.name && c.reconfig == reconfig) ++rows;
      EXPECT_EQ(rows, 2) << p.name << (reconfig ? " rc" : " norc");
    }
}

// The fault-tolerant column: CRUSADE-FT (check tasks, spares, dependability
// merges) over every profile at 150 tasks, default parameters.
struct GoldenFtCase {
  const char* profile;
  const char* digest;
  int sched_evals;
  int repair_moves;
};

const GoldenFtCase kGoldenFt[] = {
    {"A1TR", "7a9258de94c7c542", 331, 0},
    {"VDRTX", "59261c32ebb7de25", 346, 0},
    {"HROST", "02b4e0dce65d003d", 441, 0},
    {"EST189A", "c48f80ffbec5c097", 373, 0},
    {"HRXC", "588d9e7a9b0c0f4a", 394, 0},
    {"ADMR", "54a4346afbc163e7", 449, 0},
    {"B192G", "18fd7c709064b052", 355, 0},
    {"NGXM", "7c6ec529447bd03e", 364, 0},
};

void PrintTo(const GoldenFtCase& c, std::ostream* os) {
  *os << c.profile << "-150.ft";
}

class GoldenFtAnswer : public ::testing::TestWithParam<GoldenFtCase> {};

TEST_P(GoldenFtAnswer, DigestMatchesPin) {
  const GoldenFtCase& c = GetParam();
  const Specification spec = profile_spec(c.profile, 150);
  const CrusadeFtResult r = CrusadeFt(spec, lib()).run();
  EXPECT_EQ(answer_digest(r.synthesis), c.digest);
  EXPECT_EQ(r.synthesis.stats.sched_evals, c.sched_evals);
  EXPECT_EQ(r.synthesis.stats.repair_moves, c.repair_moves);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, GoldenFtAnswer, ::testing::ValuesIn(kGoldenFt),
    [](const ::testing::TestParamInfo<GoldenFtCase>& info) {
      return std::string(info.param.profile) + "_150_ft";
    });

// Budget rows: an evaluation budget that runs out in the middle of
// allocation.  The budget stops the search at a fixed evaluation count, so
// the truncated answer and the tally pin exactly which evaluation the
// allocator charged last.
struct GoldenBudgetCase {
  const char* profile;
  int tasks;
  int max_iterations;
  const char* digest;
  int sched_evals;
  bool budget_exhausted;
};

const GoldenBudgetCase kGoldenBudget[] = {
    {"A1TR", 150, 50, "e46688a0cb647715", 80, true},
    {"ADMR", 300, 200, "71b5c6110b14242a", 237, true},
};

void PrintTo(const GoldenBudgetCase& c, std::ostream* os) {
  *os << c.profile << "-" << c.tasks << ".budget" << c.max_iterations;
}

class GoldenBudgetAnswer
    : public ::testing::TestWithParam<GoldenBudgetCase> {};

TEST_P(GoldenBudgetAnswer, DigestMatchesPin) {
  const GoldenBudgetCase& c = GetParam();
  CrusadeParams params;
  params.enable_reconfig = false;
  params.alloc.max_iterations = c.max_iterations;
  const CrusadeResult r =
      Crusade(profile_spec(c.profile, c.tasks), lib(), params).run();
  EXPECT_EQ(answer_digest(r), c.digest);
  EXPECT_EQ(r.stats.sched_evals, c.sched_evals);
  EXPECT_EQ(r.diagnosis.alloc_budget_exhausted, c.budget_exhausted);
}

INSTANTIATE_TEST_SUITE_P(
    PaperProfiles, GoldenBudgetAnswer, ::testing::ValuesIn(kGoldenBudget),
    [](const ::testing::TestParamInfo<GoldenBudgetCase>& info) {
      return std::string(info.param.profile) + "_" +
             std::to_string(info.param.tasks) + "_budget" +
             std::to_string(info.param.max_iterations);
    });

// Large, repair-dominated instances (the repair loop is most of their run
// time), default parameters with reconfiguration on.  Disabled by default —
// they take seconds each; tools/check.sh runs them with
// --gtest_also_run_disabled_tests and each prints its wall time, so
// repair-layer speed has a repeatable check next to its answer pin.
void expect_large_golden(const char* profile, int tasks,
                         const char* digest, int sched_evals,
                         int repair_moves) {
  const auto t0 = std::chrono::steady_clock::now();
  const CrusadeResult r = synthesize(profile, tasks, true);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("golden-large %s-%d: %.2f s, %lld sched evals, "
              "%lld repair moves\n",
              profile, tasks, wall,
              static_cast<long long>(r.stats.sched_evals),
              static_cast<long long>(r.stats.repair_moves));
  EXPECT_EQ(answer_digest(r), digest);
  EXPECT_EQ(r.stats.sched_evals, sched_evals);
  EXPECT_EQ(r.stats.repair_moves, repair_moves);
}

TEST(GoldenLarge, DISABLED_A1TR_676) {
  expect_large_golden("A1TR", 676, "4e969b1f33d09ccf", 6789, 21);
}

TEST(GoldenLarge, DISABLED_HROST_661) {
  expect_large_golden("HROST", 661, "6e6d0039fca30870", 1518, 5);
}

// The checkpoint encoding of a fixed state, acceptance bar included, is
// pinned byte for byte: a layout change must bump kCheckpointVersion, never
// slip through as a silent reinterpretation of old files.
TEST(GoldenCheckpoint, EncodingBytesArePinned) {
  ckpt::Checkpoint c;
  c.stage = ckpt::Stage::Allocation;
  c.spec_hash = 0x1122334455667788ull;
  c.arch = synthesize("A1TR", 150, false).arch;
  c.placed.assign(c.arch.cluster_pe.size(), 1);
  c.sched_evals = 321;
  c.clusters_with_misses = 2;
  c.committed = {3, 12345, -6789};
  EXPECT_EQ(hex64(ckpt::fnv1a(ckpt::encode_checkpoint(c))),
            "8ebdb4d87c83d668");
}

}  // namespace
}  // namespace crusade
