// Table V: chain properties — average gadget length, average chain length,
// and the gadget-type mix (Ret / IJ / DJ / CJ) of the chains each tool
// builds. Expected shape: ROPGadget/Angrop 100% ret with short gadgets;
// Gadget-Planner uses all types and builds the longest chains.
//
// One Campaign covers the whole (program × obfuscation) grid; the baseline
// tools ride along in its on_job hook (bench::run_tools).
#include "bench_util.hpp"

namespace {

struct Props {
  int chains = 0;
  int gadgets = 0;
  int insts = 0;
  int ret = 0, ij = 0, dj = 0, cj = 0;
  void add(const gp::payload::Chain& c) {
    ++chains;
    gadgets += static_cast<int>(c.gadgets.size());
    insts += c.total_insts;
    ret += c.ret_gadgets;
    ij += c.ij_gadgets;
    dj += c.dj_gadgets;
    cj += c.cj_gadgets;
  }
  void print(const char* tool) const {
    if (chains == 0) {
      std::printf("%-16s %10s %10s  (no chains)\n", tool, "-", "-");
      return;
    }
    const double typed = ret + ij + cj;
    std::printf("%-16s %10.1f %10.1f %7.0f%% %5.0f%% %5.0f%% %5.0f%%\n",
                tool, static_cast<double>(insts) / gadgets,
                static_cast<double>(insts) / chains,
                100.0 * ret / typed, 100.0 * ij / typed,
                100.0 * dj / std::max(1, gadgets),
                100.0 * cj / typed);
  }
};

}  // namespace

int main() {
  using namespace gp;

  std::vector<core::Job> jobs;
  for (const auto& row : bench::table4_rows()) {
    if (row.label == "Original") continue;  // Table V is about obf chains
    auto method_jobs = bench::bench_jobs(row.options, row.label);
    jobs.insert(jobs.end(), method_jobs.begin(), method_jobs.end());
  }

  core::Campaign::Options copts;
  copts.concurrency = bench::bench_concurrency();
  copts.pipeline.plan.max_chains = 8;
  copts.pipeline.plan.time_budget_seconds = 20;
  const auto runs =
      bench::run_tools(jobs, copts, {.max_chains = 2, .seconds = 10});
  Props props[4];
  for (const auto& t : runs)
    for (size_t tool = 0; tool < t.size(); ++tool)
      for (const auto& chains : t[tool].chains)
        for (const auto& c : chains) props[tool].add(c);

  std::printf("Table V — chain properties on obfuscated programs "
              "(codegen %s)\n",
              bench::opt_label());
  std::printf("%-16s %10s %10s %8s %6s %6s %6s\n", "tool", "gadget-len",
              "chain-len", "Ret", "IJ", "DJ", "CJ");
  bench::hr(70);
  for (int t = 0; t < 4; ++t) props[t].print(bench::kTools[t]);
  std::printf("\n(paper Table V: GP gadget-len 6.7, chain-len 33.5, mix "
              "38/10/12/40; peers 100%% Ret)\n");
  return 0;
}
