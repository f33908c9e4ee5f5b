// Hand-rolled fiber context switch (fcontext-style ABI).
//
// libc's ucontext switch saves and restores the signal mask on every
// switch — two sigprocmask syscalls per round trip, ~370 ns on current
// hosts — although fibers in this engine never touch signal state. These
// routines switch only what the System V / AAPCS64 calling conventions
// require a callee to preserve (callee-saved GPRs, the stack pointer, and
// the FP control state on x86-64), which makes a round trip a couple dozen
// instructions with no kernel involvement.
//
// A context handle is the stack pointer of the suspended context's saved
// register frame; there is no separate context object. Jumping into a
// handle consumes it and yields a fresh handle for the context that was
// suspended by the jump — contexts are relinked on every switch. The
// engine passes the jumper itself as the data word, so the resumed side
// knows whose handle it holds and stores it in that fiber's slot, or in
// the host thread's scheduler slot: any context can resume any other,
// which is what lets a parking fiber jump straight into the next one.
//
// This is the engine's only fiber switch, on x86-64 and aarch64; the
// engine does not build elsewhere. ASan builds bracket every jump with
// its fiber-switch annotations (see engine.cpp).
#pragma once

#include <cstddef>

namespace argosim {

/// A suspended context: the stack pointer of its saved register frame.
using fctx_t = void*;

extern "C" {

/// What a resumed context receives: the context that jumped to it (already
/// suspended and re-capturable) and the jumper's data word. Two pointers,
/// so the System V/AAPCS64 ABIs return it in registers.
struct FctxTransfer {
  fctx_t fctx;
  void* data;
};

/// Suspend the calling context and resume `to`. Returns when some context
/// jumps back here; the result carries the handle of the context that
/// performed that jump plus its data word. `to` is consumed — a handle is
/// one-shot and its successor is whatever later jumps deliver.
FctxTransfer argo_fctx_jump(fctx_t to, void* data);

/// Build an initial context on [stack_base, stack_base + size). The first
/// jump into the returned handle runs `entry(from, data)` on that stack,
/// where `from` is the jumping context and `data` the jump's data word.
/// `entry` must never return: it exits by jumping to another context.
fctx_t argo_fctx_make(void* stack_base, std::size_t size,
                      void (*entry)(fctx_t from, void* data));
}

}  // namespace argosim
