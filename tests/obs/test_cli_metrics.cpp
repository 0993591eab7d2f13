// Reads the metrics document that `chamtrace run --metrics-out` wrote in
// the cli.obs_artifacts_setup fixture (Chameleon on lu, 16 ranks, 8 steps,
// freq 1) and checks that the per-rank tool seconds add up to the
// tool-wide ones, phase by phase.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "support/json.hpp"

namespace cham::obs {
namespace {

TEST(ChamtraceMetrics, RankPhaseRowsSumToToolWidePhaseSeconds) {
  std::ifstream in(CHAM_OBS_SMOKE_METRICS);
  ASSERT_TRUE(in) << "missing " << CHAM_OBS_SMOKE_METRICS
                  << " (written by cli.obs_artifacts_setup)";
  std::stringstream text;
  text << in.rdbuf();
  support::json::Value doc;
  std::string error;
  ASSERT_TRUE(support::json::parse(text.str(), &doc, &error)) << error;

  std::map<std::string, double> tool_wide;
  std::map<std::string, double> rank_sum;
  std::map<std::string, int> rank_rows;
  for (const support::json::Value& m : doc.find("metrics")->as_array()) {
    const std::string& name = m.find("name")->as_string();
    if (name != "cham.phase.seconds" && name != "cham.rank.phase_seconds")
      continue;
    const std::string& phase = m.find("labels")->find("phase")->as_string();
    const double seconds = m.find("value")->as_number();
    if (name == "cham.phase.seconds") {
      tool_wide[phase] = seconds;
    } else {
      rank_sum[phase] += seconds;
      ++rank_rows[phase];
    }
  }
  ASSERT_EQ(tool_wide.size(), 3u);  // intra, inter, clustering
  for (const auto& [phase, total] : tool_wide) {
    EXPECT_GT(total, 0.0) << phase;
    EXPECT_EQ(rank_rows[phase], 16) << phase;
    EXPECT_NEAR(rank_sum[phase], total, 1e-9 * total) << phase;
  }
}

}  // namespace
}  // namespace cham::obs
