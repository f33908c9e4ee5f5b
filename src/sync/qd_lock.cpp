#include "sync/qd_lock.hpp"

#include "sim/engine.hpp"

namespace argosync {

void QdLock::execute(int core, const std::function<void(int)>& cs, bool wait) {
  // The TATAS word, queue and helper flag are one host-shared object; a
  // run over several engine shards would race their fibers over them.
  if (argosim::Engine* e = argosim::Engine::current())
    e->require_serial("QD-lock delegation (host-shared queue)");
  for (;;) {
    word_.rmw(core);  // TATAS acquire attempt
    if (!helper_active_) {
      // We hold the lock: open the delegation queue, run our own section,
      // then help everyone who delegates while we are at it.
      helper_active_ = true;
      queue_open_ = true;
      ++batches_;
      // Park an exception from our own section until the batch has drained
      // and the lock is released; delegated entries behind us must run.
      std::exception_ptr own_err;
      try {
        cs(core);
      } catch (const argosim::SimStopped&) {
        throw;  // fiber being killed: unwind, never mask
      } catch (...) {
        own_err = std::current_exception();
      }
      std::size_t executed = 1;
      for (;;) {
        if (executed >= batch_limit_) queue_open_ = false;
        if (queue_.empty()) {
          queue_open_ = false;
          break;
        }
        Entry e = std::move(queue_.front());
        queue_.pop_front();
        queue_line_.touch(core);  // pull the delegated entry's cacheline
        try {
          e.cs(core);
        } catch (const argosim::SimStopped&) {
          throw;  // do not signal done: the section did not complete
        } catch (...) {
          if (e.err != nullptr) *e.err = std::current_exception();
        }
        if (e.done != nullptr) e.done->set();
        ++delegated_;
        ++executed;
      }
      helper_active_ = false;
      word_.touch(core);
      if (own_err) std::rethrow_exception(own_err);
      return;
    }
    if (queue_open_ && queue_.size() < queue_capacity_) {
      // Delegate: publish the section into the queue (one cacheline write
      // toward the helper) and either wait for completion or detach.
      queue_line_.touch(core);
      // The helper may have closed the queue and left during the transfer
      // delay; an entry enqueued now would never execute. Re-validate.
      if (!queue_open_ || queue_.size() >= queue_capacity_) continue;
      if (wait) {
        argosim::SimEvent done;
        std::exception_ptr err;
        queue_.push_back(Entry{cs, &done, core, &err});
        done.wait();
        if (err) std::rethrow_exception(err);
      } else {
        queue_.push_back(Entry{cs, nullptr, core, nullptr});
      }
      return;
    }
    argosim::delay(200);  // queue closed or full: back off and retry
  }
}

}  // namespace argosync
