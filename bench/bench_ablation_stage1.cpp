// Ablation: the paper's run-time option of executing stage 1 (the
// remainder sequence) sequentially ("As a run-time option, the
// implementation allows this stage to be executed sequentially, if so
// desired", Section 3).
//
// Quantifies what that option costs: the remainder sequence is a long
// dependency chain whose per-iteration work shrinks, so serializing it
// caps the overall speedup by an Amdahl term that grows with P.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace prbench;
  const bool full = has_flag(argc, argv, "--full");
  print_header("Ablation: sequential stage 1 (paper's run-time option)",
               "Section 3: optional sequential remainder-sequence stage");

  const std::vector<int> degrees =
      full ? std::vector<int>{35, 50, 70} : std::vector<int>{35, 70};
  const std::size_t mu = digits_to_bits(16);

  pr::TextTable table({4, -12, 10, 8, 8, 8, 8, 10});
  std::cout << table.row({"n", "stage1", "tasks", "S(2)", "S(4)", "S(8)",
                          "S(16)", "stage1%"})
            << "\n"
            << table.rule() << "\n";
  for (int n : degrees) {
    const auto input = input_for(n, 0);
    pr::RootFinderConfig cfg;
    cfg.mu_bits = mu;
    for (const bool sequential : {false, true}) {
      pr::ParallelConfig pc;
      if (sequential) pc.grain = pr::RemainderGrain::kSequential;
      const auto run = pr::find_real_roots_parallel(input.poly, cfg, pc);
      const std::uint64_t overhead =
          run.trace.total_cost() / run.trace.size() / 5 + 1;
      const auto sp = pr::simulate_speedups(run.trace, {2, 4, 8, 16},
                                            overhead);
      // Fraction of total work in stage-1 task kinds.
      std::uint64_t stage1 = 0;
      for (const auto& t : run.trace.tasks) {
        switch (t.kind) {
          case pr::TaskKind::kSeed:
          case pr::TaskKind::kQuotient:
          case pr::TaskKind::kCoeff:
          case pr::TaskKind::kMulOp:
          case pr::TaskKind::kCombineOp:
          case pr::TaskKind::kIterMark:
            stage1 += t.cost;
            break;
          default:
            break;
        }
      }
      std::cout << table.row(
                       {std::to_string(n),
                        sequential ? "sequential" : "parallel",
                        std::to_string(run.trace.size()),
                        pr::fixed(sp[0], 2), pr::fixed(sp[1], 2),
                        pr::fixed(sp[2], 2), pr::fixed(sp[3], 2),
                        pr::fixed(100.0 * static_cast<double>(stage1) /
                                      static_cast<double>(
                                          run.trace.total_cost()),
                                  1) + "%"})
                << "\n";
    }
    std::cout << table.rule() << "\n";
  }
  std::cout << "\nexpected: with stage 1 at fraction f of the work, "
               "serializing it caps speedup\nat 1/(f + (1-f)/P) -- e.g. "
               "f = 0.25, P = 16 gives 3.4x, matching the measured\n"
               "collapse.  This is why parallelizing the remainder "
               "sequence (Section 3.1),\ndespite its fine grain, is not "
               "optional at higher processor counts.\n";
  return 0;
}
