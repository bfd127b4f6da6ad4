// Golden answer gate: every paper profile, at two small scales, with
// reconfiguration off and on, must reproduce a pinned digest of its final
// architecture and schedule.  A refactor of the engine may not move these
// by accident; an intentional answer change re-pins them and records why
// in EXPERIMENTS.md.
//
// The digest is FNV-1a over the checkpoint encoding of the architecture
// followed by every task's start and finish time, the same answer digest
// perfbench pins (the 150-task rows equal its paper-small golden entries).
// 150 tasks exercises allocation and evacuation; 300 tasks also engages the
// repair loop on most profiles.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "ckpt/serialize.hpp"
#include "core/crusade.hpp"
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
};

const GoldenCase kGolden[] = {
    {"A1TR", 150, false, "c9449611b2297e20"},
    {"A1TR", 150, true, "a9fa3616e1eeaea8"},
    {"VDRTX", 150, false, "d5b7dbcef8a48b69"},
    {"VDRTX", 150, true, "0e181808db9ffca6"},
    {"HROST", 150, false, "9d89f41031d6183b"},
    {"HROST", 150, true, "a20089d169ffc5f7"},
    {"EST189A", 150, false, "5c91418b366d973a"},
    {"EST189A", 150, true, "e4e073a4f5615abf"},
    {"HRXC", 150, false, "b28def04fda0a8ca"},
    {"HRXC", 150, true, "08669ab3a3f0b45f"},
    {"ADMR", 150, false, "836d9a080ecf3587"},
    {"ADMR", 150, true, "70e2d9d3edb3b3e6"},
    {"B192G", 150, false, "fb6e7f24430c7795"},
    {"B192G", 150, true, "0f06932aa02817c1"},
    {"NGXM", 150, false, "c6ba41212dd9804f"},
    {"NGXM", 150, true, "a829b4d4571ee4f7"},
    {"A1TR", 300, false, "8c5cd54476f5f9d3"},
    {"A1TR", 300, true, "35225dc0a04a43f6"},
    {"VDRTX", 300, false, "55eb982413036c10"},
    {"VDRTX", 300, true, "bcf1424ca5bf36e8"},
    {"HROST", 300, false, "5acdf7d10d27dfe3"},
    {"HROST", 300, true, "3b8934482a1d9ddb"},
    {"EST189A", 300, false, "157fc54a1a4476ec"},
    {"EST189A", 300, true, "566fcc00a8830723"},
    {"HRXC", 300, false, "398b4b644402113b"},
    {"HRXC", 300, true, "4363ab13f6f772e3"},
    {"ADMR", 300, false, "e6bbc5a64f3aceb9"},
    {"ADMR", 300, true, "888009598904ea22"},
    {"B192G", 300, false, "537339ccc3aecde6"},
    {"B192G", 300, true, "34dc3b22d9f2e752"},
    {"NGXM", 300, false, "e15c1bcc4627341d"},
    {"NGXM", 300, true, "e113db902637de44"},
};

void PrintTo(const GoldenCase& c, std::ostream* os) {
  *os << c.profile << "-" << c.tasks << (c.reconfig ? ".rc" : ".norc");
}

class GoldenAnswer : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenAnswer, DigestMatchesPin) {
  const GoldenCase& c = GetParam();
  const CrusadeResult r = synthesize(c.profile, c.tasks, c.reconfig);
  EXPECT_EQ(answer_digest(r), c.digest);
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
