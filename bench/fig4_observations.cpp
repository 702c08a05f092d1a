// Fig. 4 — Impact of operation selection on learning resilience (the '+'
// network thought experiment of Sec. 3).
//
// For each selection policy the bench locks a pure '+' network (test set),
// relocks it with known keys (training set), and reports what an attacker
// learns: the conditional probability P(key = 1 | locality) for each observed
// locality, and the resulting "which operation is real" inference.
//
//   (b,e) serial test + serial relocking  -> contradictory observations
//   (c,f) random test + random relocking  -> '+' is *mostly* the real op
//   (d,g) serial test + disjoint training -> '+' is *always* the real op
//
// Flags: --network=N '+' operations in [1, 4096] (default 64); --bits=N
// test-lock key bits in [1, --network] (default 32); --relocks=N.
#include <utility>

#include "attack/locality.hpp"
#include "common.hpp"
#include "figures.hpp"

namespace {

using namespace rtlock;

/// Largest '+' network --network may ask for: each relock round rebuilds
/// localities over the whole network.
constexpr std::uint64_t kMaxNetwork = 4096;

std::string codeName(int code) {
  if (code == attack::kMuxCode) return "mux";
  if (code >= 1 && code <= rtl::kOpKindCount) {
    return std::string{rtl::opName(static_cast<rtl::OpKind>(code - 1))};
  }
  return "other";
}

void report(const std::string& scenario, const std::string& figure,
            const bench::Fig4Observations& observations, bool csv) {
  std::cout << "--- " << scenario << " (" << figure << ") ---\n";
  support::Table table{{"locality (C1,C2)", "observations", "P(key=1)", "inference"}};
  for (const auto& [locality, observation] : observations) {
    const double p = observation.pOne();
    std::string inference = "ambiguous";
    if (p > 0.6) inference = codeName(locality.first) + " is likely real";
    if (p < 0.4) inference = codeName(locality.second) + " is likely real";
    table.addRow({"(" + codeName(locality.first) + "," + codeName(locality.second) + ")",
                  std::to_string(observation.total), support::formatDouble(p, 3), inference});
  }
  rtlock::bench::emit(table, csv);
  const double worstBias = bench::fig4WorstBias(observations);
  std::cout << "learned: "
            << (worstBias < 0.1 ? "operations equally likely — nothing exploitable"
                                : "key-correlated locality bias of " +
                                      support::formatDouble(worstBias, 3) + " — exploitable")
            << "\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    const service::Schema schema{
        "fig4_observations", "",
        {bench::kSeedField, bench::kCsvField, bench::countField("network", "64", kMaxNetwork),
         bench::countField("bits", "32", kMaxNetwork), bench::relocksField("200"),
         bench::kThreadsField}};
    const service::FieldValues flags = service::decodeFlags(schema, {argv + 1, argv + argc});
    const int network = flags.integer("network");
    const int bits = flags.integer("bits");
    // The one bound between two flags: the test lock fits the network.
    if (bits > network) {
      throw support::Error{"--bits must not exceed --network=" + std::to_string(network) +
                           ", got " + std::to_string(bits)};
    }

    rtlock::bench::banner(
        "Fig. 4 — operation selection vs. learning resilience",
        "Sisejkovic et al., DAC'22, Fig. 4 (b,e), (c,f), (d,g)",
        "serial: P(key=1|locality) = 0.5 everywhere; random: '+' biased toward real; "
        "disjoint: '+' always real");

    // Titles follow bench::kFig4Scenarios.
    const std::pair<const char*, const char*> titles[] = {
        {"serial test + serial relocking", "Fig. 4b/4e"},
        {"random test + random relocking (overlapping)", "Fig. 4c/4f"},
        {"serial test + disjoint training (no overlap)", "Fig. 4d/4g"}};
    const auto observations = bench::observeFig4Scenarios(
        flags.count("seed"), network, bits, flags.integer("relocks"), flags.integer("threads"));
    for (std::size_t index = 0; index < observations.size(); ++index) {
      report(titles[index].first, titles[index].second, observations[index], flags.flag("csv"));
    }
  });
}
