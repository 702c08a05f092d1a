#include "rtl/module.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "designs/random.hpp"
#include "support/diagnostics.hpp"
#include "support/rng.hpp"

namespace rtlock::rtl {
namespace {

TEST(ModuleTest, SignalDeclarationAndLookup) {
  Module m{"top"};
  const auto a = m.addInput("a", 8);
  const auto y = m.addOutput("y", 8);
  const auto w = m.addWire("w", 4);
  EXPECT_EQ(m.signalCount(), 3u);
  EXPECT_EQ(m.signal(a).name, "a");
  EXPECT_TRUE(m.signal(a).isPort);
  EXPECT_EQ(m.signal(a).dir, PortDir::Input);
  EXPECT_EQ(m.signal(y).dir, PortDir::Output);
  EXPECT_FALSE(m.signal(w).isPort);
  EXPECT_EQ(m.findSignal("w"), std::optional<SignalId>{w});
  EXPECT_FALSE(m.findSignal("missing").has_value());
}

TEST(ModuleTest, DuplicateSignalNameThrows) {
  Module m{"top"};
  m.addInput("a", 8);
  try {
    m.addWire("a", 4);
    FAIL() << "duplicate accepted";
  } catch (const support::ContractViolation& error) {
    EXPECT_NE(std::string{error.what()}.find("duplicate signal name: a"), std::string::npos)
        << error.what();
  }
  EXPECT_EQ(m.signalCount(), 1u);
  EXPECT_EQ(m.findSignal("a"), std::optional<SignalId>{0});
}

TEST(ModuleTest, KeyPortNameCollisionThrows) {
  Module m{"top"};
  EXPECT_THROW(m.addWire("lock_key", 4), support::ContractViolation);
}

/// The id of the first signal named `name`, by a scan of the signal table.
std::optional<SignalId> scanForSignal(const Module& m, std::string_view name) {
  for (SignalId id = 0; id < m.signalCount(); ++id) {
    if (m.signal(id).name == name) return id;
  }
  return std::nullopt;
}

void expectLookupsMatchScan(const Module& m, const std::string& context) {
  for (SignalId id = 0; id < m.signalCount(); ++id) {
    const std::string& name = m.signal(id).name;
    ASSERT_EQ(m.findSignal(name), std::optional<SignalId>{id}) << context << ": " << name;
    ASSERT_EQ(m.findSignal(name), scanForSignal(m, name)) << context << ": " << name;
    // Near misses: prefixes and extensions of real names are (mostly) absent.
    for (const std::string& absent : {name + "_", name.substr(0, name.size() - 1), "x" + name}) {
      ASSERT_EQ(m.findSignal(absent), scanForSignal(m, absent)) << context << ": " << absent;
    }
  }
  EXPECT_EQ(m.findSignal(""), std::nullopt) << context;
  EXPECT_EQ(m.findSignal(m.keyPortName()), std::nullopt) << context;
}

TEST(ModuleTest, NameIndexMatchesScanOnRandomModules) {
  const support::Rng root{2024};
  for (std::uint64_t i = 0; i < 200; ++i) {
    support::Rng rng = root.substream(i);
    designs::RandomModuleParams params;
    params.operations = 5 + static_cast<int>(i % 60);
    params.useSlices = i % 2 == 0;
    Module m = designs::makeRandomModule(rng, params);
    const std::string context = "module " + std::to_string(i);
    expectLookupsMatchScan(m, context);
    const Module copy = m.clone();
    expectLookupsMatchScan(copy, context + " clone");
    Module moved = std::move(m);
    expectLookupsMatchScan(moved, context + " moved");
    m = std::move(moved);
    expectLookupsMatchScan(m, context + " moved back");
    if (HasFailure()) return;
  }
}

TEST(ModuleTest, NameIndexSurvivesGrowth) {
  Module m{"top"};
  EXPECT_EQ(m.findSignal("s0"), std::nullopt);
  EXPECT_EQ(m.nameIndexBytes(), 0u);
  for (int count = 1; count <= 5000; ++count) {
    const std::string name = "s" + std::to_string(count - 1);
    ASSERT_EQ(m.addWire(name, 1 + count % 64), static_cast<SignalId>(count - 1));
    // Each new signal must not hide an old one: spot-check the first, the
    // newest and one in the middle, plus the next name (still absent).
    ASSERT_EQ(m.findSignal("s0"), std::optional<SignalId>{0});
    ASSERT_EQ(m.findSignal(name), std::optional<SignalId>{static_cast<SignalId>(count - 1)});
    ASSERT_EQ(m.findSignal("s" + std::to_string(count / 2)),
              std::optional<SignalId>{static_cast<SignalId>(count / 2)});
    ASSERT_EQ(m.findSignal("s" + std::to_string(count)), std::nullopt);
    // Power-of-two capacity, at least twice the signal count.
    const std::size_t slots = m.nameIndexBytes() / sizeof(SignalId);
    ASSERT_GE(slots, 2u * m.signalCount());
    ASSERT_EQ(slots & (slots - 1), 0u);
  }
  expectLookupsMatchScan(m, "5000 signals");
  EXPECT_THROW(m.addReg("s4999", 1), support::ContractViolation);
  EXPECT_THROW(m.addInput("lock_key", 1), support::ContractViolation);
  EXPECT_EQ(m.signalCount(), 5000u);
  expectLookupsMatchScan(m, "after rejected adds");
}

TEST(ModuleTest, PortsInDeclarationOrder) {
  Module m{"top"};
  m.addInput("clk", 1);
  m.addWire("internal", 8);
  m.addOutput("q", 8);
  const auto ports = m.ports();
  ASSERT_EQ(ports.size(), 2u);
  EXPECT_EQ(m.signal(ports[0]).name, "clk");
  EXPECT_EQ(m.signal(ports[1]).name, "q");
}

TEST(ModuleTest, KeyAllocationAndRewind) {
  Module m{"top"};
  EXPECT_EQ(m.keyWidth(), 0);
  EXPECT_EQ(m.allocateKeyBits(1), 0);
  EXPECT_EQ(m.allocateKeyBits(4), 1);
  EXPECT_EQ(m.keyWidth(), 5);
  m.setKeyWidth(1);
  EXPECT_EQ(m.keyWidth(), 1);
  EXPECT_EQ(m.allocateKeyBits(2), 1);
}

TEST(ModuleTest, CloneIsStructurallyEqual) {
  Module m{"top"};
  const auto a = m.addInput("a", 8);
  const auto b = m.addInput("b", 8);
  const auto y = m.addOutput("y", 8);
  m.addContAssign(LValue{y, std::nullopt},
                  makeBinary(OpKind::Add, makeSignalRef(a, 8), makeSignalRef(b, 8)));
  const auto clk = m.addInput("clk", 1);
  auto body = makeBlock();
  static_cast<BlockStmt&>(*body).append(
      makeAssign(LValue{y, std::nullopt}, makeSignalRef(a, 8), true));
  m.addProcess(ProcessKind::Sequential, clk, std::move(body));
  m.allocateKeyBits(3);

  const Module copy = m.clone();
  EXPECT_TRUE(structurallyEqual(m, copy));
  EXPECT_EQ(copy.keyWidth(), 3);
}

TEST(ModuleTest, CloneIsIndependent) {
  Module m{"top"};
  const auto a = m.addInput("a", 8);
  const auto y = m.addOutput("y", 8);
  m.addContAssign(LValue{y, std::nullopt}, makeSignalRef(a, 8));
  Module copy = m.clone();
  copy.contAssigns()[0]->exprSlotAt(0) = makeConstant(0, 8);
  EXPECT_FALSE(structurallyEqual(m, copy));
}

TEST(ModuleTest, StructuralEqualityDiscriminates) {
  Module a{"top"};
  a.addInput("x", 8);
  Module b{"top"};
  b.addInput("x", 4);  // different width
  EXPECT_FALSE(structurallyEqual(a, b));
  Module c{"other"};
  c.addInput("x", 8);
  EXPECT_FALSE(structurallyEqual(a, c));
}

TEST(DesignTest, TopSelection) {
  Design design;
  design.addModule(Module{"alpha"});
  design.addModule(Module{"beta"});
  EXPECT_EQ(design.top().name(), "alpha");
  design.setTop("beta");
  EXPECT_EQ(design.top().name(), "beta");
  EXPECT_THROW(design.setTop("gamma"), support::Error);
  EXPECT_NE(design.findModule("alpha"), nullptr);
  EXPECT_EQ(design.findModule("missing"), nullptr);
}

}  // namespace
}  // namespace rtlock::rtl
