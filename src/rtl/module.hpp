// Module: the unit of locking, simulation and Verilog I/O.
//
// A module owns a signal table, continuous assignments, and always-processes.
// Continuous assignments and processes are heap-allocated so that ExprSlot
// handles into them stay valid while containers grow (see holder.hpp).
//
// Key bits are modelled as one implicit input vector (named by keyPortName,
// default "lock_key"); locking transformations allocate bits through
// allocateKeyBits and may roll the allocation back via setKeyWidth (the undo
// stack uses this).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rtl/stmt.hpp"

namespace rtlock::rtl {

enum class PortDir : std::uint8_t { Input, Output };
enum class NetKind : std::uint8_t { Wire, Reg };

struct Signal {
  std::string name;
  int width = 1;
  NetKind net = NetKind::Wire;
  bool isPort = false;
  PortDir dir = PortDir::Input;
};

/// assign target = value;
class ContAssign final : public ExprHolder {
 public:
  ContAssign(LValue target, ExprPtr value);

  [[nodiscard]] const LValue& target() const noexcept { return target_; }
  [[nodiscard]] const Expr& value() const noexcept { return *value_; }

  static constexpr int kValueSlot = 0;
  [[nodiscard]] int exprSlotCount() const noexcept override { return 1; }
  [[nodiscard]] ExprPtr& exprSlotAt(int index) override;

 private:
  LValue target_;
  ExprPtr value_;
};

enum class ProcessKind : std::uint8_t {
  Combinational,  // always @(*)    — blocking assignments
  Sequential,     // always @(posedge clock) — non-blocking assignments
};

struct Process {
  ProcessKind kind = ProcessKind::Combinational;
  /// Clock signal for sequential processes; unused otherwise.
  SignalId clock = 0;
  StmtPtr body;
};

class Module {
 public:
  explicit Module(std::string name);

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) noexcept = default;
  Module& operator=(Module&&) noexcept = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // ---- Signals ----

  /// Adds a signal; names must be unique within the module.
  SignalId addSignal(Signal signal);
  SignalId addInput(std::string name, int width);
  SignalId addOutput(std::string name, int width, NetKind net = NetKind::Wire);
  SignalId addWire(std::string name, int width);
  SignalId addReg(std::string name, int width);

  [[nodiscard]] const Signal& signal(SignalId id) const;
  /// Expected O(1): one hash of `name` and a short probe of the name index.
  [[nodiscard]] std::optional<SignalId> findSignal(std::string_view name) const noexcept;
  [[nodiscard]] std::size_t signalCount() const noexcept { return signals_.size(); }
  /// Bytes held by the name index behind findSignal.
  [[nodiscard]] std::size_t nameIndexBytes() const noexcept {
    return nameIndex_.capacity() * sizeof(SignalId);
  }

  /// Ports in declaration order.
  [[nodiscard]] std::vector<SignalId> ports() const;

  // ---- Structure ----

  ContAssign& addContAssign(LValue target, ExprPtr value);
  Process& addProcess(ProcessKind kind, SignalId clock, StmtPtr body);

  [[nodiscard]] const std::vector<std::unique_ptr<ContAssign>>& contAssigns() const noexcept {
    return contAssigns_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<ContAssign>>& contAssigns() noexcept {
    return contAssigns_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const noexcept {
    return processes_;
  }
  [[nodiscard]] std::vector<std::unique_ptr<Process>>& processes() noexcept { return processes_; }

  // ---- Locking key ----

  [[nodiscard]] const std::string& keyPortName() const noexcept { return keyPortName_; }
  void setKeyPortName(std::string name) { keyPortName_ = std::move(name); }

  /// Width of the implicit key input (0 = unlocked design).
  [[nodiscard]] int keyWidth() const noexcept { return keyWidth_; }

  /// Reserve `count` key bits; returns the first allocated index.
  int allocateKeyBits(int count);

  /// Rewind/advance the key allocation (undo support).
  void setKeyWidth(int width);

  /// Deep copy preserving signal ids and key allocation.
  [[nodiscard]] Module clone() const;

 private:
  /// The slot holding `name`'s id, or the empty slot where it would go.
  [[nodiscard]] std::size_t nameSlot(std::string_view name) const noexcept;
  void growNameIndex();

  std::string name_;
  std::vector<Signal> signals_;
  // Open-addressing index by name: each slot is a SignalId or kNoSignal, the
  // capacity a power of two at least twice the signal count.  Probes compare
  // against signals_[id].name, so the index stores no names and no hashes;
  // nothing iterates it, so ids stay in insertion order.
  std::vector<SignalId> nameIndex_;
  std::vector<std::unique_ptr<ContAssign>> contAssigns_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::string keyPortName_ = "lock_key";
  int keyWidth_ = 0;
};

/// Structural equality: same signals, assigns, processes and key width.
[[nodiscard]] bool structurallyEqual(const Module& a, const Module& b) noexcept;

/// A design is a set of modules with a designated top.  The locking flow and
/// the attack operate module-by-module; multi-module designs come from the
/// Verilog frontend.
class Design {
 public:
  Design() = default;

  Module& addModule(Module module);
  [[nodiscard]] std::size_t moduleCount() const noexcept { return modules_.size(); }
  [[nodiscard]] Module& module(std::size_t index) { return *modules_.at(index); }
  [[nodiscard]] const Module& module(std::size_t index) const { return *modules_.at(index); }
  [[nodiscard]] Module* findModule(std::string_view name) noexcept;

  [[nodiscard]] Module& top();
  [[nodiscard]] const Module& top() const;
  void setTop(std::string_view name);

 private:
  std::vector<std::unique_ptr<Module>> modules_;
  std::size_t topIndex_ = 0;
};

}  // namespace rtlock::rtl
