// The bench-regression gate (tools/bench_compare): exact on deterministic
// facts, tolerant on wall time, and honest exit codes so CI can trust 0.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "obs/json_util.h"
#include "tools/bench_compare.h"

namespace gpivot::tools {
namespace {

namespace fs = std::filesystem;

class BenchDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("bench_diff_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "base");
    fs::create_directories(root_ / "cand");
  }
  void TearDown() override { fs::remove_all(root_); }

  struct FileSpec {
    int num_threads = 1;
    double wall_ms = 10.0;
    int view_rows = 500;
    std::string extra_row_fields;  // appended inside the result object
  };

  // One-figure BENCH document with a single FullRecompute@1% row.
  static std::string Doc(const FileSpec& spec) {
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"figure\": \"Fig/Test\", \"scale_factor\": 0.0100, \"seed\": 7,\n"
        " \"num_threads\": %d, \"hardware_threads\": 8,\n"
        " \"results\": [{\"strategy\": \"FullRecompute\", "
        "\"delta_fraction\": 0.0100, \"wall_ms\": %.4f, "
        "\"wall_ms_median\": %.4f, \"reps\": 3, \"view_rows\": %d, "
        "\"delta_rows\": 50%s}]}\n",
        spec.num_threads, spec.wall_ms, spec.wall_ms, spec.view_rows,
        spec.extra_row_fields.c_str());
    return buf;
  }

  void WriteSide(const char* side, const std::string& content,
                 const char* name = "BENCH_Fig_Test.json") {
    std::ofstream(root_ / side / name) << content;
  }

  int Diff(const BenchDiffOptions& options, BenchDiffReport* report) {
    return DiffBenchDirs((root_ / "base").string(), (root_ / "cand").string(),
                         options, report);
  }

  fs::path root_;
};

TEST_F(BenchDiffTest, IdenticalDirsPass) {
  WriteSide("base", Doc({}));
  WriteSide("cand", Doc({}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();
  EXPECT_TRUE(report.errors.empty());
}

TEST_F(BenchDiffTest, ViewRowChangeFails) {
  WriteSide("base", Doc({.view_rows = 500}));
  WriteSide("cand", Doc({.view_rows = 501}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("view_rows"), std::string::npos)
      << report.errors[0];
}

TEST_F(BenchDiffTest, WallRegressionBeyondToleranceFails) {
  WriteSide("base", Doc({.wall_ms = 10.0}));
  WriteSide("cand", Doc({.wall_ms = 100.0}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("wall time regressed"), std::string::npos);

  // Within a generous tolerance the same pair passes.
  BenchDiffReport lenient_report;
  BenchDiffOptions lenient;
  lenient.time_tolerance = 25.0;
  EXPECT_EQ(Diff(lenient, &lenient_report), kDiffOk)
      << lenient_report.ToString();
  // And --shape-only never looks at time.
  BenchDiffReport shape_report;
  BenchDiffOptions shape;
  shape.shape_only = true;
  EXPECT_EQ(Diff(shape, &shape_report), kDiffOk);
}

TEST_F(BenchDiffTest, ThreadCountMismatchSkipsWallGate) {
  WriteSide("base", Doc({.num_threads = 1, .wall_ms = 10.0}));
  WriteSide("cand", Doc({.num_threads = 4, .wall_ms = 100.0}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("num_threads differ"), std::string::npos);
}

TEST_F(BenchDiffTest, FilesWithoutShardFieldStayWallComparable) {
  // Documents carry no num_shards field: the wall gate applies, so a real
  // regression fails and equal timings pass.
  WriteSide("base", Doc({.wall_ms = 10.0}));
  WriteSide("cand", Doc({.wall_ms = 100.0}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("wall time regressed"), std::string::npos);

  WriteSide("cand", Doc({.wall_ms = 10.0}));
  BenchDiffReport same;
  EXPECT_EQ(Diff({}, &same), kDiffOk) << same.ToString();
  EXPECT_TRUE(same.notes.empty()) << same.ToString();
}

TEST_F(BenchDiffTest, RetiredShardFieldDoesNotSkipWallGate) {
  // Files recorded while the shard count existed carry "num_shards". The
  // field is now ignored: differing or missing on one side, it neither
  // skips the wall gate nor adds a note.
  auto with_shards = [](std::string doc, int shards) {
    const std::string anchor = "\"hardware_threads\": 8,\n";
    doc.insert(doc.find(anchor) + anchor.size(),
               " \"num_shards\": " + std::to_string(shards) + ",\n");
    return doc;
  };
  WriteSide("base", with_shards(Doc({.wall_ms = 10.0}), 1));
  WriteSide("cand", with_shards(Doc({.wall_ms = 100.0}), 4));
  BenchDiffReport both;
  EXPECT_EQ(Diff({}, &both), kDiffFailed);
  EXPECT_NE(both.ToString().find("wall time regressed"), std::string::npos);
  EXPECT_EQ(both.ToString().find("num_shards"), std::string::npos)
      << both.ToString();

  WriteSide("cand", Doc({.wall_ms = 100.0}));
  BenchDiffReport one_side;
  EXPECT_EQ(Diff({}, &one_side), kDiffFailed);
  EXPECT_NE(one_side.ToString().find("wall time regressed"),
            std::string::npos);
  EXPECT_EQ(one_side.ToString().find("num_shards"), std::string::npos)
      << one_side.ToString();
}

TEST_F(BenchDiffTest, RepQuartilesParseAndDoNotGate) {
  // BENCH files record the spread of the reps next to the min and median.
  // The quartiles parse as numbers, and the gate ignores them: a candidate
  // with a much wider spread but the same median passes.
  const std::string base = Doc(
      {.extra_row_fields = ", \"wall_ms_p25\": 9.5, \"wall_ms_p75\": 10.5"});
  WriteSide("base", base);
  WriteSide("cand",
            Doc({.extra_row_fields =
                     ", \"wall_ms_p25\": 1.0, \"wall_ms_p75\": 90.0"}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();

  std::optional<obs::JsonValue> doc = obs::ParseJson(base);
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue& row = doc->Find("results")->array.at(0);
  ASSERT_NE(row.Find("wall_ms_p25"), nullptr);
  ASSERT_NE(row.Find("wall_ms_p75"), nullptr);
  const double p25 = row.Find("wall_ms_p25")->number_value;
  const double median = row.Find("wall_ms_median")->number_value;
  const double p75 = row.Find("wall_ms_p75")->number_value;
  EXPECT_EQ(p25, 9.5);
  EXPECT_EQ(p75, 10.5);
  EXPECT_LE(p25, median);
  EXPECT_LE(median, p75);
}

TEST_F(BenchDiffTest, CounterChangeFailsButIgnoredPrefixPasses) {
  FileSpec base;
  base.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 4, "
      "\"thread_pool.tasks\": 9}}";
  FileSpec cand;
  cand.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 4, "
      "\"thread_pool.tasks\": 77}}";
  WriteSide("base", Doc(base));
  WriteSide("cand", Doc(cand));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffOk) << report.ToString();

  cand.extra_row_fields =
      ", \"metrics\": {\"counters\": {\"exec.join.calls\": 5, "
      "\"thread_pool.tasks\": 9}}";
  WriteSide("cand", Doc(cand));
  BenchDiffReport changed;
  EXPECT_EQ(Diff({}, &changed), kDiffFailed);
  EXPECT_NE(changed.ToString().find("exec.join.calls"), std::string::npos);
}

TEST_F(BenchDiffTest, MissingFigureFailsUnlessAllowed) {
  WriteSide("base", Doc({}));
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  BenchDiffOptions allow;
  allow.require_all = false;
  BenchDiffReport allowed;
  EXPECT_EQ(Diff(allow, &allowed), kDiffOk) << allowed.ToString();
}

TEST_F(BenchDiffTest, FigureIdentityMismatchFails) {
  WriteSide("base", Doc({}));
  std::string other = Doc({});
  auto at = other.find("\"seed\": 7");
  other.replace(at, 9, "\"seed\": 8");
  WriteSide("cand", other);
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffFailed);
  EXPECT_NE(report.ToString().find("seed mismatch"), std::string::npos);
}

TEST_F(BenchDiffTest, UnparsableInputIsUnusableNotPass) {
  WriteSide("base", Doc({}));
  WriteSide("cand", "{\"figure\": ");
  BenchDiffReport report;
  EXPECT_EQ(Diff({}, &report), kDiffUnusable);
  BenchDiffReport missing_report;
  EXPECT_EQ(DiffBenchDirs((root_ / "nowhere").string(),
                          (root_ / "cand").string(), {}, &missing_report),
            kDiffUnusable);
}

}  // namespace
}  // namespace gpivot::tools
