#include "rtl/module.hpp"

#include <algorithm>
#include <functional>

namespace rtlock::rtl {

namespace {

constexpr SignalId kNoSignal = UINT32_MAX;

[[nodiscard]] std::size_t hashName(std::string_view name) noexcept {
  return std::hash<std::string_view>{}(name);
}

}  // namespace

// ---- ContAssign ----

ContAssign::ContAssign(LValue target, ExprPtr value) : target_(target), value_(std::move(value)) {
  RTLOCK_REQUIRE(value_ != nullptr, "continuous assignment needs a value");
}

ExprPtr& ContAssign::exprSlotAt(int index) {
  RTLOCK_REQUIRE(index == kValueSlot, "continuous assignments own a single expression");
  return value_;
}

// ---- Module ----

Module::Module(std::string name) : name_(std::move(name)) {
  RTLOCK_REQUIRE(!name_.empty(), "modules must be named");
}

SignalId Module::addSignal(Signal signal) {
  RTLOCK_REQUIRE(!signal.name.empty(), "signals must be named");
  RTLOCK_REQUIRE(signal.width >= 1, "signal width must be positive");
  if ((signals_.size() + 1) * 2 > nameIndex_.size()) growNameIndex();
  const std::size_t slot = nameSlot(signal.name);
  RTLOCK_REQUIRE(nameIndex_[slot] == kNoSignal, "duplicate signal name: " + signal.name);
  RTLOCK_REQUIRE(signal.name != keyPortName_, "signal name collides with the key port");
  const auto id = static_cast<SignalId>(signals_.size());
  signals_.push_back(std::move(signal));
  nameIndex_[slot] = id;
  return id;
}

SignalId Module::addInput(std::string name, int width) {
  return addSignal({std::move(name), width, NetKind::Wire, true, PortDir::Input});
}

SignalId Module::addOutput(std::string name, int width, NetKind net) {
  return addSignal({std::move(name), width, net, true, PortDir::Output});
}

SignalId Module::addWire(std::string name, int width) {
  return addSignal({std::move(name), width, NetKind::Wire, false, PortDir::Input});
}

SignalId Module::addReg(std::string name, int width) {
  return addSignal({std::move(name), width, NetKind::Reg, false, PortDir::Input});
}

const Signal& Module::signal(SignalId id) const {
  RTLOCK_REQUIRE(id < signals_.size(), "signal id out of range");
  return signals_[id];
}

std::optional<SignalId> Module::findSignal(std::string_view name) const noexcept {
  if (nameIndex_.empty()) return std::nullopt;
  const SignalId id = nameIndex_[nameSlot(name)];
  if (id == kNoSignal) return std::nullopt;
  return id;
}

std::size_t Module::nameSlot(std::string_view name) const noexcept {
  const std::size_t mask = nameIndex_.size() - 1;
  std::size_t slot = hashName(name) & mask;
  while (nameIndex_[slot] != kNoSignal && signals_[nameIndex_[slot]].name != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Module::growNameIndex() {
  nameIndex_.assign(nameIndex_.empty() ? 16 : nameIndex_.size() * 2, kNoSignal);
  const std::size_t mask = nameIndex_.size() - 1;
  for (SignalId id = 0; id < signals_.size(); ++id) {
    std::size_t slot = hashName(signals_[id].name) & mask;
    while (nameIndex_[slot] != kNoSignal) slot = (slot + 1) & mask;
    nameIndex_[slot] = id;
  }
}

std::vector<SignalId> Module::ports() const {
  std::vector<SignalId> result;
  for (SignalId id = 0; id < signals_.size(); ++id) {
    if (signals_[id].isPort) result.push_back(id);
  }
  return result;
}

ContAssign& Module::addContAssign(LValue target, ExprPtr value) {
  RTLOCK_REQUIRE(target.signal < signals_.size(), "assignment target signal out of range");
  contAssigns_.push_back(std::make_unique<ContAssign>(target, std::move(value)));
  return *contAssigns_.back();
}

Process& Module::addProcess(ProcessKind kind, SignalId clock, StmtPtr body) {
  RTLOCK_REQUIRE(body != nullptr, "process body must not be null");
  if (kind == ProcessKind::Sequential) {
    RTLOCK_REQUIRE(clock < signals_.size(), "sequential process clock out of range");
  }
  auto process = std::make_unique<Process>();
  process->kind = kind;
  process->clock = clock;
  process->body = std::move(body);
  processes_.push_back(std::move(process));
  return *processes_.back();
}

int Module::allocateKeyBits(int count) {
  RTLOCK_REQUIRE(count >= 1, "key allocation must request at least one bit");
  const int first = keyWidth_;
  keyWidth_ += count;
  return first;
}

void Module::setKeyWidth(int width) {
  RTLOCK_REQUIRE(width >= 0, "key width cannot be negative");
  keyWidth_ = width;
}

Module Module::clone() const {
  Module copy{name_};
  copy.signals_ = signals_;
  copy.nameIndex_ = nameIndex_;
  copy.keyPortName_ = keyPortName_;
  copy.keyWidth_ = keyWidth_;
  copy.contAssigns_.reserve(contAssigns_.size());
  for (const auto& assign : contAssigns_) {
    copy.contAssigns_.push_back(
        std::make_unique<ContAssign>(assign->target(), assign->value().clone()));
  }
  copy.processes_.reserve(processes_.size());
  for (const auto& process : processes_) {
    auto cloned = std::make_unique<Process>();
    cloned->kind = process->kind;
    cloned->clock = process->clock;
    cloned->body = process->body->clone();
    copy.processes_.push_back(std::move(cloned));
  }
  return copy;
}

bool structurallyEqual(const Module& a, const Module& b) noexcept {
  if (a.name() != b.name() || a.keyWidth() != b.keyWidth() ||
      a.signalCount() != b.signalCount() || a.contAssigns().size() != b.contAssigns().size() ||
      a.processes().size() != b.processes().size()) {
    return false;
  }
  for (SignalId id = 0; id < a.signalCount(); ++id) {
    const Signal& sa = a.signal(id);
    const Signal& sb = b.signal(id);
    if (sa.name != sb.name || sa.width != sb.width || sa.net != sb.net ||
        sa.isPort != sb.isPort || (sa.isPort && sa.dir != sb.dir)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.contAssigns().size(); ++i) {
    const auto& ca = *a.contAssigns()[i];
    const auto& cb = *b.contAssigns()[i];
    if (!(ca.target() == cb.target()) || !structurallyEqual(ca.value(), cb.value())) return false;
  }
  for (std::size_t i = 0; i < a.processes().size(); ++i) {
    const auto& pa = *a.processes()[i];
    const auto& pb = *b.processes()[i];
    if (pa.kind != pb.kind) return false;
    if (pa.kind == ProcessKind::Sequential && pa.clock != pb.clock) return false;
    if (!structurallyEqual(*pa.body, *pb.body)) return false;
  }
  return true;
}

// ---- Design ----

Module& Design::addModule(Module module) {
  modules_.push_back(std::make_unique<Module>(std::move(module)));
  return *modules_.back();
}

Module* Design::findModule(std::string_view name) noexcept {
  const auto it = std::find_if(modules_.begin(), modules_.end(),
                               [name](const auto& m) { return m->name() == name; });
  return it == modules_.end() ? nullptr : it->get();
}

Module& Design::top() {
  RTLOCK_REQUIRE(!modules_.empty(), "design has no modules");
  return *modules_[topIndex_];
}

const Module& Design::top() const {
  RTLOCK_REQUIRE(!modules_.empty(), "design has no modules");
  return *modules_[topIndex_];
}

void Design::setTop(std::string_view name) {
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    if (modules_[i]->name() == name) {
      topIndex_ = i;
      return;
    }
  }
  throw support::Error{"no module named '" + std::string{name} + "' in design"};
}

}  // namespace rtlock::rtl
