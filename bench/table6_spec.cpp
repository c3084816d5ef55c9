// Table VI: the SPEC-like suite — gadget and chain counts per tool on the
// original and obfuscated builds. Expected shape: baselines find 0-1 chains
// anywhere; Gadget-Planner finds chains on the obfuscated builds.
#include "bench_util.hpp"

int main() {
  using namespace gp;

  std::printf("Table VI — SPEC-like programs (execve/mprotect/mmap chains "
              "summed)\n");
  std::printf("%-12s %-10s %10s | %6s %6s %6s %6s\n", "benchmark", "build",
              "gadgets", "RG", "Angrop", "SGC", "GP");
  bench::hr(76);

  std::vector<core::Job> jobs;
  for (const auto& program : corpus::spec()) {
    for (const auto& row : bench::table4_rows(429)) {
      core::Job job;
      job.program = program.name;
      job.source = program.source;
      job.obfuscation = row.label;
      job.obf = row.options;
      jobs.push_back(std::move(job));
    }
  }
  const auto runs = bench::run_tools(jobs, bench::quick_campaign(),
                                     {.max_chains = 4, .seconds = 20});

  for (size_t j = 0; j < jobs.size(); ++j) {
    const bench::ToolRuns& t = runs[j];
    std::printf("%-12s %-10s %10llu | %6d %6d %6d %6d\n",
                jobs[j].program.c_str(), jobs[j].obfuscation.c_str(),
                (unsigned long long)t[3].gadgets_total, t[0].total_chains(),
                t[1].total_chains(), t[2].total_chains(),
                t[3].total_chains());
  }
  std::printf("\n(paper Table VI: RG/Angrop ~0 everywhere; GP finds chains, "
              "most on obfuscated builds)\n");
  return 0;
}
