// `rtlock designs` — the built-in benchmark registry (the paper's 14
// evaluation designs), with per-design lockability numbers so users can size
// budgets before running `rtlock eval` against a registry design they dumped
// via --emit.
#include "cli/common.hpp"
#include "core/engine.hpp"
#include "designs/registry.hpp"
#include "support/table.hpp"
#include "verilog/writer.hpp"

namespace rtlock::cli {

int runDesignsCommand(const service::FieldValues& flags, CommandIo& io) {

  // --emit=NAME dumps one registry design as Verilog so the file-based
  // commands can chew on exactly what the figure benches evaluate.
  if (flags.has("emit")) {
    const rtl::Module module = designs::makeBenchmark(flags.text("emit"));
    io.out << verilog::writeModule(module);
    return kExitOk;
  }

  support::Table table{{"name", "description", "lockable_ops", "budget@75%"}};
  for (const designs::BenchmarkInfo& info : designs::allBenchmarks()) {
    rtl::Module module = info.make();
    const lock::LockEngine engine{module, lock::PairTable::fixed()};
    const int ops = engine.initialLockableOps();
    table.addRow({info.name, info.description, std::to_string(ops),
                  std::to_string(static_cast<int>(0.75 * ops))});
  }
  if (flags.flag("csv")) {
    table.renderCsv(io.out);
  } else {
    table.renderText(io.out);
  }
  return kExitOk;
}

}  // namespace rtlock::cli
