// Negative-path coverage for the Verilog frontend: every rejected construct
// must fail with a support::Error (never a crash or silent acceptance).
#include <gtest/gtest.h>

#include <string>

#include "support/diagnostics.hpp"
#include "verilog/parser.hpp"

namespace rtlock::verilog {
namespace {

void expectRejected(const std::string& source, const char* fragment) {
  try {
    (void)parseModule(source);
    FAIL() << "expected rejection of: " << source.substr(0, 200);
  } catch (const support::Error& error) {
    EXPECT_NE(std::string{error.what()}.find(fragment), std::string::npos)
        << "got: " << error.what();
  }
}

TEST(ParserErrorsTest, EmptyInput) { expectRejected("", "expected 'module'"); }

TEST(ParserErrorsTest, MissingSemicolonAfterHeader) {
  expectRejected("module m (input a, output y) endmodule", "';'");
}

TEST(ParserErrorsTest, MissingEndmodule) {
  expectRejected("module m (input a, output y); assign y = a;", "unsupported module item");
}

TEST(ParserErrorsTest, DuplicatePortDeclaration) {
  expectRejected("module m (a); input a; input a; endmodule", "declared twice");
}

TEST(ParserErrorsTest, InputRegIsIllegal) {
  expectRejected("module m (input reg a, output y); endmodule", "cannot be declared 'reg'");
}

TEST(ParserErrorsTest, NonZeroLsbRange) {
  expectRejected("module m (input [7:4] a, output y); assign y = a[4]; endmodule",
                 "[msb:0]");
}

TEST(ParserErrorsTest, AssignToKeyPort) {
  expectRejected(R"(
    module m (a, y, lock_key);
      input a; output y; input [3:0] lock_key;
      assign lock_key = a;
    endmodule)",
                 "cannot assign");
}

TEST(ParserErrorsTest, KeyPortAsOutput) {
  expectRejected("module m (input a, output [3:0] lock_key); endmodule", "must be an input");
}

TEST(ParserErrorsTest, DynamicBitSelect) {
  expectRejected(R"(
    module m (input [7:0] a, input [2:0] i, output y);
      assign y = a[i];
    endmodule)",
                 "constant bit/part-select");
}

TEST(ParserErrorsTest, UnbalancedParentheses) {
  expectRejected("module m (input a, output y); assign y = (a; endmodule", "')'");
}

TEST(ParserErrorsTest, MissingTernaryColon) {
  expectRejected("module m (input a, output y); assign y = a ? a ; endmodule", "':'");
}

TEST(ParserErrorsTest, NonBlockingInCombinational) {
  expectRejected(R"(
    module m (input a, output reg y);
      always @(*) y <= a;
    endmodule)",
                 "blocking");
}

TEST(ParserErrorsTest, UnsupportedSensitivityList) {
  expectRejected(R"(
    module m (input clk, input a, output reg y);
      always @(negedge clk) y <= a;
    endmodule)",
                 "sensitivity");
}

TEST(ParserErrorsTest, CaseLabelMustBeConstant) {
  expectRejected(R"(
    module m (input [1:0] s, input [1:0] a, output reg y);
      always @(*) begin
        case (s)
          a: y = 1'b1;
        endcase
      end
    endmodule)",
                 "constant case label");
}

TEST(ParserErrorsTest, DuplicateDefaultArm) {
  expectRejected(R"(
    module m (input [1:0] s, output reg y);
      always @(*) begin
        case (s)
          default: y = 1'b0;
          default: y = 1'b1;
        endcase
      end
    endmodule)",
                 "duplicate default");
}

TEST(ParserErrorsTest, WideSignalRejected) {
  expectRejected("module m (input [64:0] a, output y); assign y = a[0]; endmodule",
                 "64-bit");
}

TEST(ParserErrorsTest, ConflictingRedeclarationWidth) {
  expectRejected(R"(
    module m (a, y);
      input [7:0] a; output y;
      wire [3:0] a;
      assign y = a[0];
    endmodule)",
                 "conflicting width");
}

TEST(ParserErrorsTest, PartSelectOutOfRange) {
  expectRejected("module m (input [3:0] a, output [7:0] y); assign y[9:0] = a; endmodule",
                 "out of range");
}

TEST(ParserErrorsTest, ReplicationCountZero) {
  expectRejected("module m (input a, output y); assign y = {0{a}}; endmodule",
                 "replication count");
}

TEST(ParserErrorsTest, NestedReplicationRejectedBeforeCloning) {
  // 64^4 copies of `a`: each level multiplies the clones by 64, so the
  // fourth would build 16.7M nodes.  The third (262,144) is within the cap.
  expectRejected("module m (input a, output y); assign y = {64{{64{{64{{64{a}}}}}}}}; endmodule",
                 "replication clones more than 1048576 expression nodes");
  EXPECT_NO_THROW((void)parseModule(
      "module m (input a, output y); assign y = {64{{64{{64{a}}}}}}; endmodule"));
}

TEST(ParserErrorsTest, WideConcatenationRejected) {
  // 64^3 clones of a 64-bit signal: within the node cap, 16M bits wide.
  expectRejected(
      "module m (input [63:0] a, output y); assign y = {64{{64{{64{a}}}}}}; endmodule",
      "concatenation wider than 1048576 bits");
  std::string parts = "a";
  for (int i = 0; i < 16384; ++i) parts += ", a";
  expectRejected("module m (input [63:0] a, output y); assign y = {" + parts + "}; endmodule",
                 "concatenation wider than 1048576 bits");
}

TEST(ParserErrorsTest, GoodErrorLocationReporting) {
  try {
    (void)parseModule("module m (input a,\n output y);\n assign z = a;\nendmodule");
    FAIL();
  } catch (const support::Error& error) {
    EXPECT_NE(std::string{error.what()}.find("line 3"), std::string::npos) << error.what();
  }
}

// ---- Nesting caps ----
//
// Each deep input below used to exhaust the stack, either in the parser's own
// recursion or in a recursive pass over the tree it built.  The cap turns
// them into ordinary parse errors.

constexpr const char* kNestingError = "nest at most 1024 levels";

std::string assignOf(const std::string& expr) {
  return "module m (input [7:0] a, output [7:0] y); assign y = " + expr + "; endmodule";
}

std::string repeated(const std::string& unit, int count) {
  std::string out;
  out.reserve(unit.size() * static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out += unit;
  return out;
}

std::string parenthesized(const std::string& inner, int levels) {
  return repeated("(", levels) + inner + repeated(")", levels);
}

/// `a + a + ... + a` with `terms` terms: the parser loops, but the tree it
/// builds is `terms` levels high.
std::string chainOf(int terms) { return "a" + repeated(" + a", terms - 1); }

TEST(ParserErrorsTest, DeepParenthesesRejected) {
  expectRejected(assignOf(parenthesized("a", 30000)), kNestingError);
}

TEST(ParserErrorsTest, LongOperatorChainRejected) {
  expectRejected(assignOf(chainOf(100000)), kNestingError);
}

TEST(ParserErrorsTest, DeepOperatorNestingRejected) {
  expectRejected(assignOf(repeated("~", 30000) + "a"), kNestingError);
  expectRejected(assignOf(repeated("a ** ", 30000) + "a"), kNestingError);  // right-assoc
  expectRejected(assignOf(repeated("a ? a : ", 30000) + "a"), kNestingError);
  expectRejected(assignOf(repeated("{", 30000) + "a" + repeated("}", 30000)), kNestingError);
  expectRejected(assignOf(repeated("a + (", 30000) + "a" + repeated(")", 30000)),
                 kNestingError);
}

TEST(ParserErrorsTest, DeepStatementNestingRejected) {
  const std::string head = "module m (input a, output reg y); always @(*) ";
  expectRejected(head + repeated("begin ", 30000) + "y = a;" + repeated(" end", 30000) +
                     " endmodule",
                 kNestingError);
  expectRejected(head + repeated("if (a) ", 30000) + "y = a; endmodule", kNestingError);
}

TEST(ParserErrorsTest, DeepConstantExpressionRejected) {
  expectRejected("module m (input [" + parenthesized("7", 30000) +
                     ":0] a, output y); assign y = a[0]; endmodule",
                 kNestingError);
}

TEST(ParserErrorsTest, NestingUpToTheCapParses) {
  // The assignment's expression is level 1, each parenthesis one more.
  EXPECT_NO_THROW((void)parseModule(assignOf(parenthesized("a", 1023))));
  expectRejected(assignOf(parenthesized("a", 1024)), kNestingError);
  // A tree of height 1024 is accepted, one level more is not.
  EXPECT_NO_THROW((void)parseModule(assignOf(chainOf(1024))));
  expectRejected(assignOf(chainOf(1025)), kNestingError);
}

}  // namespace
}  // namespace rtlock::verilog
