#include "src/lab/csv_export.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/kernel/profile.h"
#include "src/workload/stress_profile.h"
#include "tests/temp_path.h"

namespace wdmlat::lab {
namespace {

LabReport MakeSmallReport() {
  LabConfig config;
  config.os = kernel::MakeWin98Profile();
  config.stress = workload::OfficeStress();
  config.thread_priority = 24;
  config.stress_minutes = 0.2;
  config.seed = 5;
  return RunLatencyExperiment(config);
}

TEST(CsvExportTest, DefaultPrefixIsFilesystemSafe) {
  const LabReport report = MakeSmallReport();
  const std::string prefix = DefaultCsvPrefix(report);
  EXPECT_EQ(prefix, "windows_98_business_apps_p24");
}

TEST(CsvExportTest, WritesAllFilesForLegacyOs) {
  const LabReport report = MakeSmallReport();
  const std::filesystem::path dir = testutil::TempFileFor("wdmlat_csv_test");
  const int files = WriteReportCsv(report, dir.string(), "test");
  // 6 distributions (incl. the two 98-only ones and ground truth) + summary.
  EXPECT_EQ(files, 7);
  EXPECT_TRUE(std::filesystem::exists(dir / "test_dpc_interrupt.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "test_interrupt.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "test_summary.csv"));

  // Summary has a header plus one row per exported distribution.
  std::ifstream summary(dir / "test_summary.csv");
  std::string line;
  int lines = 0;
  while (std::getline(summary, line)) {
    ++lines;
  }
  EXPECT_EQ(lines, 7);
  std::filesystem::remove_all(dir);
}

TEST(CsvExportTest, SkipsLegacyFilesOnNt) {
  LabConfig config;
  config.os = kernel::MakeNt4Profile();
  config.stress = workload::IdleStress();
  config.thread_priority = 28;
  config.stress_minutes = 0.1;
  config.seed = 6;
  const LabReport report = RunLatencyExperiment(config);
  const std::filesystem::path dir = testutil::TempFileFor("wdmlat_csv_test_nt");
  const int files = WriteReportCsv(report, dir.string(), "nt");
  EXPECT_EQ(files, 5);  // 4 distributions + summary
  EXPECT_FALSE(std::filesystem::exists(dir / "nt_interrupt.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir / "nt_isr_to_dpc.csv"));
  std::filesystem::remove_all(dir);
}

TEST(CsvExportTest, HistogramCsvCountsMatchReport) {
  const LabReport report = MakeSmallReport();
  const std::filesystem::path dir = testutil::TempFileFor("wdmlat_csv_test_counts");
  WriteReportCsv(report, dir.string(), "c");
  std::ifstream in(dir / "c_thread.csv");
  std::string line;
  std::getline(in, line);  // header
  std::uint64_t total = 0;
  while (std::getline(in, line)) {
    const auto comma = line.find(',');
    ASSERT_NE(comma, std::string::npos);
    total += std::stoull(line.substr(comma + 1));
  }
  EXPECT_EQ(total, report.thread.count());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wdmlat::lab
