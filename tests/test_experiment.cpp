#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "core/artifacts.hpp"
#include "core/platform.hpp"

namespace biosense::core {
namespace {

TEST(Sweeps, LogSpaceEndpointsAndRatio) {
  const auto v = log_space(1e-12, 1e-7, 6);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_NEAR(v.front(), 1e-12, 1e-18);
  EXPECT_NEAR(v.back(), 1e-7, 1e-13);
  for (std::size_t i = 1; i < v.size(); ++i) {
    EXPECT_NEAR(v[i] / v[i - 1], 10.0, 1e-6);
  }
}

TEST(Sweeps, RejectDegenerate) {
  EXPECT_THROW(log_space(0.0, 1.0, 5), ConfigError);
  EXPECT_THROW(log_space(1.0, 0.5, 5), ConfigError);
}

TEST(ClaimReport, PassFailTracking) {
  ClaimReport report("test");
  report.add("a", "1", "1", true);
  EXPECT_TRUE(report.all_pass());
  report.add_range("b", "~2", 2.1, 1.5, 2.5, "V");
  EXPECT_TRUE(report.all_pass());
  report.add_range("c", "~3", 9.9, 2.5, 3.5, "V");
  EXPECT_FALSE(report.all_pass());
  EXPECT_EQ(report.size(), 3u);
}

TEST(ClaimReport, PrintsStatusColumn) {
  ClaimReport report("claims");
  report.add("quantity", "paper", "measured", false);
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("DEVIATES"), std::string::npos);
}

TEST(Platform, PaperSummariesMatchText) {
  // These constants are the quantitative content of the paper; the summary
  // bench prints simulated values against them.
  const auto dna = paper_dna_chip();
  EXPECT_EQ(dna.rows * dna.cols, 128);
  EXPECT_DOUBLE_EQ(dna.current_min, 1e-12);
  EXPECT_DOUBLE_EQ(dna.current_max, 100e-9);
  EXPECT_EQ(dna.interface_pins, 6);
  EXPECT_DOUBLE_EQ(dna.vdd, 5.0);

  const auto neuro = paper_neuro_chip();
  EXPECT_EQ(neuro.rows, 128);
  EXPECT_EQ(neuro.cols, 128);
  EXPECT_DOUBLE_EQ(neuro.pitch, 7.8e-6);
  EXPECT_DOUBLE_EQ(neuro.frame_rate, 2000.0);
  EXPECT_DOUBLE_EQ(neuro.signal_min, 100e-6);
  EXPECT_DOUBLE_EQ(neuro.signal_max, 5e-3);
  EXPECT_EQ(neuro.channels, 16);
  // Pitch below the smallest neuron diameter: "each cell is monitored
  // independent of its individual position".
  EXPECT_LT(neuro.pitch, 10e-6);
  // Sensor area consistency: 128 * 7.8 um ~ 1 mm.
  EXPECT_NEAR(neuro.rows * neuro.pitch, neuro.sensor_area_side, 0.01e-3);
}

TEST(Artifacts, WritesCsvFile) {
  Table t("demo");
  t.set_columns({"a", "b"});
  t.add_row({1.0, 2.0});
  const std::string path =
      write_table_csv(t, "artifact_test", "test_results_tmp");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "a,b");
  std::string row;
  std::getline(in, row);
  EXPECT_EQ(row, "1,2");
  std::filesystem::remove_all("test_results_tmp");
}

}  // namespace
}  // namespace biosense::core
