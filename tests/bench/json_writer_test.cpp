// Unit tests for the benchmark-harness JSON reporter: median/stddev
// aggregation, measure(), and the metadata fields of a full
// BenchReporter document (tests/support/json_writer_test.cpp covers the
// writer it uses).
#include "harness/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace parlap::bench {
namespace {

TEST(Summarize, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).reps, 0);

  const std::vector<double> one{2.5};
  const TimingSummary s = summarize(one);
  EXPECT_EQ(s.reps, 1);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 2.5);
}

TEST(Summarize, OddCountMedianIsMiddleOfSorted) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(summarize(v).median, 2.0);
}

TEST(Summarize, EvenCountMedianAveragesMiddlePair) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  const TimingSummary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Summarize, SampleStddev) {
  const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population variance 4, sample variance 32/7.
  EXPECT_NEAR(summarize(v).stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Measure, RunsWarmupPlusReps) {
  int calls = 0;
  const std::vector<double> samples = measure(3, 2, [&] { ++calls; });
  EXPECT_EQ(calls, 5);
  ASSERT_EQ(samples.size(), 3u);
  for (const double s : samples) EXPECT_GE(s, 0.0);
}

TEST(Metadata, FieldsArePopulated) {
  const RunMetadata md = collect_metadata();
  EXPECT_FALSE(md.commit.empty());
  EXPECT_FALSE(md.hostname.empty());
  EXPECT_FALSE(md.compiler.empty());
  EXPECT_GE(md.threads, 1);
  // ISO 8601 UTC shape: YYYY-MM-DDTHH:MM:SSZ.
  ASSERT_EQ(md.timestamp_utc.size(), 20u);
  EXPECT_EQ(md.timestamp_utc[4], '-');
  EXPECT_EQ(md.timestamp_utc[10], 'T');
  EXPECT_EQ(md.timestamp_utc.back(), 'Z');
}

TEST(Metadata, EnvCommitOverridesBuildValue) {
  ASSERT_EQ(setenv("PARLAP_GIT_COMMIT", "deadbeef1234", 1), 0);
  EXPECT_EQ(collect_metadata().commit, "deadbeef1234");
  unsetenv("PARLAP_GIT_COMMIT");
}

TEST(BenchReporterTest, DocumentContainsMetadataAndAggregates) {
  BenchReporter r;
  r.set_experiment("E0");
  const std::vector<double> times{0.25, 0.5, 1.0};
  r.record("grid2d/n=16", {{"n", 16.0}, {"m", 480.0}}, times);
  r.record_time("path/n=8", {{"n", 8.0}}, 0.125);

  std::ostringstream out;
  r.write(out);
  const std::string doc = out.str();

  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"experiment\":\"E0\""), std::string::npos);
  EXPECT_NE(doc.find("\"commit\":"), std::string::npos);
  EXPECT_NE(doc.find("\"threads\":"), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"grid2d/n=16\""), std::string::npos);
  EXPECT_NE(doc.find("\"n\":16,\"m\":480"), std::string::npos);
  EXPECT_NE(doc.find("\"reps\":3,\"median\":0.5"), std::string::npos);
  EXPECT_NE(doc.find("\"reps\":1,\"median\":0.125"), std::string::npos);

  // Balanced braces/brackets outside of strings: cheap well-formedness
  // check for the streamed document.
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(BenchReporterTest, WriteToEnvPathRoundTrips) {
  const std::string path =
      testing::TempDir() + "/parlap_json_writer_test.json";
  ASSERT_EQ(setenv("PARLAP_BENCH_JSON", path.c_str(), 1), 0);
  {
    BenchReporter r;
    r.set_experiment("E0");
    r.record_time("case", {{"n", 4.0}}, 0.5);
    EXPECT_TRUE(r.write_to_env_path());
    // Second call is a no-op: the report is written once.
    EXPECT_FALSE(r.write_to_env_path());
  }
  unsetenv("PARLAP_BENCH_JSON");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"median\":0.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(SmokeFlag, ReadsEnvironment) {
  unsetenv("PARLAP_SMOKE");
  EXPECT_FALSE(smoke());
  ASSERT_EQ(setenv("PARLAP_SMOKE", "1", 1), 0);
  EXPECT_TRUE(smoke());
  ASSERT_EQ(setenv("PARLAP_SMOKE", "0", 1), 0);
  EXPECT_FALSE(smoke());
  unsetenv("PARLAP_SMOKE");
}

}  // namespace
}  // namespace parlap::bench
