#include "src/metrics/tables.h"

#include <cstdio>
#include <ostream>

namespace ikdp {

namespace {

ExperimentResult Run(DiskKind disk, bool splice, bool loaded, int64_t file_bytes) {
  ExperimentConfig cfg;
  cfg.disk = disk;
  cfg.use_splice = splice;
  cfg.with_test_program = loaded;
  cfg.file_bytes = file_bytes;
  return RunCopyExperiment(cfg);
}

constexpr DiskKind kDisks[] = {DiskKind::kRam, DiskKind::kRz56, DiskKind::kRz58};

}  // namespace

std::vector<Table1Row> RunTable1(int64_t file_bytes) {
  std::vector<Table1Row> rows;
  for (DiskKind disk : kDisks) {
    Table1Row row;
    row.disk = disk;
    // Section 6.2: under CP the test program runs at 50% of IDLE on the RAM
    // disk and 60% on the SCSI disks; under SCP at 80% (RAM, RZ58) and 70%
    // (RZ56).
    switch (disk) {
      case DiskKind::kRam:
        row.paper_f_cp = 1.0 / 0.50;
        row.paper_f_scp = 1.0 / 0.80;
        break;
      case DiskKind::kRz56:
        row.paper_f_cp = 1.0 / 0.60;
        row.paper_f_scp = 1.0 / 0.70;
        break;
      case DiskKind::kRz58:
        row.paper_f_cp = 1.0 / 0.60;
        row.paper_f_scp = 1.0 / 0.80;
        break;
    }
    row.cp = Run(disk, /*splice=*/false, /*loaded=*/true, file_bytes);
    row.scp = Run(disk, /*splice=*/true, /*loaded=*/true, file_bytes);
    rows.push_back(row);
  }
  return rows;
}

std::vector<Table2Row> RunTable2(int64_t file_bytes) {
  std::vector<Table2Row> rows;
  for (DiskKind disk : kDisks) {
    Table2Row row;
    row.disk = disk;
    if (disk == DiskKind::kRam) {
      row.paper_scp_kbs = 3343;
      row.paper_cp_kbs = 1884;
    } else {
      row.paper_scp_kbs = -1;  // rows illegible; paper: "benefit ... is minor"
      row.paper_cp_kbs = -1;
    }
    row.cp = Run(disk, /*splice=*/false, /*loaded=*/false, file_bytes);
    row.scp = Run(disk, /*splice=*/true, /*loaded=*/false, file_bytes);
    rows.push_back(row);
  }
  return rows;
}

void PrintTable1(std::ostream& os, const std::vector<Table1Row>& rows) {
  char line[256];
  os << "Table 1: CPU Availability Factors (copying "
     << (rows.empty() ? 8 : rows[0].cp.config.file_bytes >> 20) << " MB file)\n";
  os << "  F = test-program slowdown vs IDLE; I = F_cp/F_scp; %% = (I-1)x100\n\n";
  std::snprintf(line, sizeof(line), "  %-5s | %-17s | %-17s | %-13s | %-13s | ok\n", "Disk",
                "F_cp  (paper)", "F_scp (paper)", "I  (paper)", "%  (paper)");
  os << line;
  os << "  ------+-------------------+-------------------+---------------+---------------+---\n";
  for (const Table1Row& r : rows) {
    std::snprintf(line, sizeof(line),
                  "  %-5s | %5.2f  (%5.2f)    | %5.2f  (%5.2f)    | %5.2f (%4.2f)  | %5.1f "
                  "(%4.0f)  | %s\n",
                  DiskKindName(r.disk), r.cp.slowdown, r.paper_f_cp, r.scp.slowdown,
                  r.paper_f_scp, r.MeasuredImprovement(), r.PaperImprovement(),
                  (r.MeasuredImprovement() - 1.0) * 100.0, (r.PaperImprovement() - 1.0) * 100.0,
                  r.cp.ok && r.scp.ok ? "y" : "FAIL");
    os << line;
  }
  os << "\n";
}

void PrintTable2(std::ostream& os, const std::vector<Table2Row>& rows) {
  char line[256];
  os << "Table 2: Mean Throughput Measurements (copying "
     << (rows.empty() ? 8 : rows[0].cp.config.file_bytes >> 20) << " MB file)\n\n";
  std::snprintf(line, sizeof(line), "  %-5s | %-21s | %-21s | %-15s | ok\n", "Disk",
                "SCP KB/s (paper)", "CP KB/s  (paper)", "%-impr (paper)");
  os << line;
  os << "  ------+-----------------------+-----------------------+-----------------+---\n";
  for (const Table2Row& r : rows) {
    char scp_paper[32];
    char cp_paper[32];
    char pct_paper[32];
    if (r.paper_scp_kbs >= 0) {
      std::snprintf(scp_paper, sizeof(scp_paper), "%5.0f", r.paper_scp_kbs);
      std::snprintf(cp_paper, sizeof(cp_paper), "%5.0f", r.paper_cp_kbs);
      std::snprintf(pct_paper, sizeof(pct_paper), "%3.0f%%",
                    (r.paper_scp_kbs / r.paper_cp_kbs - 1.0) * 100.0);
    } else {
      std::snprintf(scp_paper, sizeof(scp_paper), "  n/a");
      std::snprintf(cp_paper, sizeof(cp_paper), "  n/a");
      std::snprintf(pct_paper, sizeof(pct_paper), "minor");
    }
    std::snprintf(line, sizeof(line),
                  "  %-5s | %7.0f  (%s)      | %7.0f  (%s)      | %5.1f%% (%s)  | %s\n",
                  DiskKindName(r.disk), r.scp.throughput_kbs, scp_paper, r.cp.throughput_kbs,
                  cp_paper, r.MeasuredImprovementPct(), pct_paper,
                  r.cp.ok && r.scp.ok ? "y" : "FAIL");
    os << line;
  }
  os << "\n";
}

}  // namespace ikdp
