// `ablation <name> [flags]` prints one ablation of ablations.hpp: leakage,
// budget_sweep, training_size, features, greedy_reversal, global_bias,
// corruption, oracle or overhead.  Each name takes the flags its row in
// bench::ablations() lists (docs/REPRODUCING.md has them with defaults); an
// unknown name prints the names and exits 2.
#include <algorithm>
#include <iostream>

#include "ablations.hpp"

int main(int argc, char** argv) {
  using namespace rtlock;
  const auto& ablations = bench::ablations();
  const auto it = std::find_if(ablations.begin(), ablations.end(), [&](const auto& ablation) {
    return argc > 1 && ablation.schema.command == argv[1];
  });
  if (it == ablations.end()) {
    std::cerr << "usage: ablation <name> [--flag=value ...]\nnames:";
    for (const bench::Ablation& ablation : ablations) std::cerr << ' ' << ablation.schema.command;
    std::cerr << '\n';
    return 2;
  }
  return bench::runBench([&] {
    const service::FieldValues flags = service::decodeFlags(it->schema, {argv + 2, argv + argc});
    bench::banner(std::string{it->title}, std::string{it->paperRef},
                  std::string{it->expectation});
    for (const auto& [caption, table] : it->run(flags, /*gate=*/false).tables) {
      std::cout << caption;
      bench::emit(table, flags.flag("csv"));
    }
  });
}
