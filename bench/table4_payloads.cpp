// Table IV: gadgets (total/used) and payload counts per attack goal, for
// the four tools, across {Original, LLVM-Obf, Tigress}. Expected shape:
// Gadget-Planner builds far more payloads than ROPGadget/Angrop (which
// mostly fail outright), and more than SGC; obfuscated rows dominate the
// original row; parenthesized numbers are payloads newly introduced by the
// obfuscation.
#include "bench_util.hpp"

int main() {
  using namespace gp;
  const auto programs = bench::bench_programs();
  const auto& goals = payload::Goal::all();

  std::printf("Table IV — payloads per tool, summed over %zu benchmark "
              "programs%s\n\n",
              programs.size(),
              bench::full_sweep() ? "" : " (GP_BENCH_FULL=1 for all 12)");

  // totals[row][tool][goal]
  struct ToolAgg {
    u64 gadgets_total = 0, gadgets_used = 0;
    int chains[3] = {0, 0, 0};
  };
  const auto rows = bench::table4_rows();
  std::vector<std::vector<ToolAgg>> totals(rows.size(),
                                           std::vector<ToolAgg>(4));

  std::vector<core::Job> jobs;  // row-major: every program under each row
  for (const auto& row : rows) {
    auto row_jobs = bench::bench_jobs(row.options, row.label);
    jobs.insert(jobs.end(), row_jobs.begin(), row_jobs.end());
  }
  const auto runs = bench::run_tools(jobs, bench::quick_campaign(),
                                     {.max_chains = 4, .seconds = 20});
  for (size_t j = 0; j < jobs.size(); ++j) {
    auto& agg = totals[j / programs.size()];
    for (size_t t = 0; t < agg.size(); ++t) {
      const bench::ToolRun& run = runs[j][t];
      agg[t].gadgets_total += run.gadgets_total;
      agg[t].gadgets_used += run.gadgets_used;
      for (size_t g = 0; g < goals.size(); ++g)
        agg[t].chains[g] += static_cast<int>(run.chains[g].size());
    }
  }

  for (size_t rowi = 0; rowi < rows.size(); ++rowi) {
    std::printf("== %s ==\n", rows[rowi].label.c_str());
    std::printf("%-16s %14s %10s %8s %9s %6s %7s%s\n", "tool",
                "gadgets-total", "used", "execve", "mprotect", "mmap",
                "total", rowi > 0 ? "  (new vs original)" : "");
    bench::hr(96);
    for (int t = 0; t < 4; ++t) {
      const auto& a = totals[rowi][t];
      const int total = a.chains[0] + a.chains[1] + a.chains[2];
      std::printf("%-16s %14llu %10llu %8d %9d %6d %7d", bench::kTools[t],
                  (unsigned long long)a.gadgets_total,
                  (unsigned long long)a.gadgets_used, a.chains[0],
                  a.chains[1], a.chains[2], total);
      if (rowi > 0) {
        const auto& orig = totals[0][t];
        const int new_chains =
            total - (orig.chains[0] + orig.chains[1] + orig.chains[2]);
        std::printf("  (%+d)", new_chains);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("(paper: GP ~30x ROPGadget, ~10x Angrop, ~2x SGC on "
              "obfuscated programs)\n");
  return 0;
}
