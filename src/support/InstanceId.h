//===- support/InstanceId.h - Process-unique object identity ----*- C++ -*-===//
//
// Part of the lcdfg project: a reproduction of "Transforming Loop Chains via
// Macro Dataflow Graphs" (CGO 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-unique, never-reused object identity. State derived from an
/// object and cached elsewhere (a plan's compiled executables, keyed on
/// the kernel registry and JIT engine they were built against) keys on
/// this instead of on the object's address: an object destroyed and
/// rebuilt at the same address, a copy, and both sides of a move all get
/// a fresh identity, so a cache can never hand a stale entry to them.
///
//===----------------------------------------------------------------------===//

#ifndef LCDFG_SUPPORT_INSTANCEID_H
#define LCDFG_SUPPORT_INSTANCEID_H

#include <atomic>
#include <cstdint>

namespace lcdfg {

class InstanceId {
public:
  InstanceId() : V(next()) {}
  InstanceId(const InstanceId &) : V(next()) {}
  InstanceId(InstanceId &&Other) noexcept : V(next()) { Other.renew(); }
  InstanceId &operator=(const InstanceId &) {
    renew();
    return *this;
  }
  InstanceId &operator=(InstanceId &&Other) noexcept {
    renew();
    Other.renew();
    return *this;
  }

  /// Takes a fresh identity (the object's derived state changed).
  void renew() { V = next(); }
  /// Never 0, so 0 can mean "no object".
  std::uint64_t value() const { return V; }

private:
  static std::uint64_t next() {
    static std::atomic<std::uint64_t> Counter{0};
    return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t V;
};

} // namespace lcdfg

#endif // LCDFG_SUPPORT_INSTANCEID_H
