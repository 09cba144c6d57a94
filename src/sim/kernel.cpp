#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace ifsyn::sim {

// ---- configuration -------------------------------------------------------

void Kernel::add_signal_field(const FieldKey& key, BitVector initial) {
  IFSYN_ASSERT_MSG(!index_.count(key),
                   "duplicate signal field " << key.to_string());
  const SignalId id = static_cast<SignalId>(fields_.size());
  index_.emplace(key, id);
  keys_.push_back(key);
  const auto [ord_it, inserted] = signal_ord_.emplace(
      key.signal, static_cast<std::uint32_t>(signal_ord_.size()));
  if (inserted) wildcard_waiters_.push_back(nullptr);
  FieldState state;
  state.current = initial;
  state.initial = std::move(initial);
  state.signal_ord = ord_it->second;
  fields_.push_back(std::move(state));
}

void Kernel::add_bus_lock(const std::string& bus) {
  if (bus_index_.count(bus)) return;  // idempotent, as the map emplace was
  const BusId id = static_cast<BusId>(bus_locks_.size());
  bus_index_.emplace(bus, id);
  BusLockState lock;
  lock.name = bus;
  bus_locks_.push_back(std::move(lock));
}

void Kernel::add_process(const std::string& name,
                         std::function<SimTask()> factory, bool restarts) {
  auto proc = std::make_unique<ProcessRuntime>();
  proc->name = name;
  proc->factory = std::move(factory);
  proc->restarts = restarts;
  proc->index = static_cast<std::uint32_t>(processes_.size());
  proc->stats.name = name;
  processes_.push_back(std::move(proc));
}

// ---- name resolution ------------------------------------------------------

SignalId Kernel::signal_id(const FieldKey& key) const {
  auto it = index_.find(key);
  IFSYN_ASSERT_MSG(it != index_.end(),
                   "unknown signal field " << key.to_string());
  return it->second;
}

SignalId Kernel::wildcard_id(const std::string& signal) const {
  auto it = signal_ord_.find(signal);
  IFSYN_ASSERT_MSG(it != signal_ord_.end(), "unknown signal " << signal);
  return kWildcardBit | it->second;
}

BusId Kernel::bus_id(const std::string& bus) const {
  auto it = bus_index_.find(bus);
  IFSYN_ASSERT_MSG(it != bus_index_.end(), "unknown bus lock " << bus);
  return it->second;
}

SignalId Kernel::find_signal_id(const FieldKey& key) const {
  auto it = index_.find(key);
  return it != index_.end() ? it->second : kInvalidSignalId;
}

SignalId Kernel::find_wildcard_id(const std::string& signal) const {
  auto it = signal_ord_.find(signal);
  return it != signal_ord_.end() ? kWildcardBit | it->second
                                 : kInvalidSignalId;
}

BusId Kernel::find_bus_id(const std::string& bus) const {
  auto it = bus_index_.find(bus);
  return it != bus_index_.end() ? it->second : kInvalidBusId;
}

// ---- signal access --------------------------------------------------------

Kernel::FieldState& Kernel::field_state(const FieldKey& key) {
  return fields_[signal_id(key)];
}

const Kernel::FieldState& Kernel::field_state(const FieldKey& key) const {
  return fields_[signal_id(key)];
}

const BitVector& Kernel::signal_value(const FieldKey& key) const {
  return field_state(key).current;
}

const BitVector& Kernel::initial_value(const FieldKey& key) const {
  return field_state(key).initial;
}

void Kernel::schedule_signal(const FieldKey& key, BitVector value) {
  schedule_signal(signal_id(key), std::move(value));
}

void Kernel::schedule_signal(SignalId id, BitVector value) {
  FieldState& state = fields_[id];
  IFSYN_ASSERT_MSG(value.width() == state.current.width(),
                   "signal " << keys_[id].to_string() << " width "
                             << state.current.width() << " assigned "
                             << value.width() << " bits");
  if (!state.has_pending) {
    state.has_pending = true;
    dirty_.push_back(id);
  }
  state.pending = std::move(value);  // last write in a delta wins
}

// ---- ready bitmap ---------------------------------------------------------

void Kernel::make_ready(ProcessRuntime& proc) {
  proc.wait = WaitKind::kReady;
  std::uint64_t& word = ready_bits_[proc.index >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (proc.index & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++ready_count_;
  }
}

std::size_t Kernel::next_ready(std::size_t from) const {
  std::size_t word = from >> 6;
  if (word >= ready_bits_.size()) return npos;
  std::uint64_t bits = ready_bits_[word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }
    if (++word >= ready_bits_.size()) return npos;
    bits = ready_bits_[word];
  }
}

// ---- sensitivity index ----------------------------------------------------

Kernel::EventNode*& Kernel::waiter_head(SignalId sig, WaitKind kind) {
  if (kind == WaitKind::kCondition) return fields_[sig].cond_waiters;
  return (sig & kWildcardBit) != 0 ? wildcard_waiters_[sig & ~kWildcardBit]
                                   : fields_[sig].waiters;
}

void Kernel::link_waiter(ProcessRuntime& proc, std::span<const SignalId> ids,
                         WaitKind kind) {
  proc.wait = kind;
  // Nodes must not move while linked: pick storage for the whole set
  // first, then splice each node onto its signal's list head.
  if (ids.size() <= kInlineNodes) {
    proc.nodes = proc.inline_nodes.data();
  } else {
    if (proc.spill_nodes.size() < ids.size()) {
      proc.spill_nodes.resize(ids.size());
    }
    proc.nodes = proc.spill_nodes.data();
  }
  std::uint32_t linked = 0;
  for (auto it = ids.begin(); it != ids.end(); ++it) {
    // A condition walk keeps the saved next node across a wake, so a
    // process must appear at most once per condition list.
    if (kind == WaitKind::kCondition && std::find(ids.begin(), it, *it) != it) {
      continue;
    }
    EventNode& node = proc.nodes[linked++];
    node.proc = &proc;
    node.prev = nullptr;
    node.sig = *it;
    EventNode*& head = waiter_head(node.sig, kind);
    node.next = head;
    if (head != nullptr) head->prev = &node;
    head = &node;
  }
  proc.node_count = linked;
}

void Kernel::unlink_waiter(ProcessRuntime& proc) {
  for (std::uint32_t i = 0; i < proc.node_count; ++i) {
    EventNode& node = proc.nodes[i];
    if (node.prev != nullptr) {
      node.prev->next = node.next;
    } else {
      waiter_head(node.sig, proc.wait) = node.next;
    }
    if (node.next != nullptr) node.next->prev = node.prev;
  }
  proc.node_count = 0;
}

void Kernel::remove_condition_waiter(ProcessRuntime& proc) {
  const std::uint32_t slot = proc.cond_slot;
  ProcessRuntime* moved = condition_waiters_.back();
  condition_waiters_[slot] = moved;
  moved->cond_slot = slot;
  condition_waiters_.pop_back();
}

bool Kernel::wake_if_true(ProcessRuntime& proc) {
  if (!proc.condition(proc.condition_ctx)) return false;
  if (proc.cond_sensitized) {
    unlink_waiter(proc);
  } else {
    remove_condition_waiter(proc);
  }
  make_ready(proc);
  ++stats_.wakeups_condition;
  return true;
}

// ---- awaitables -----------------------------------------------------------

void Kernel::Awaiter::await_suspend(std::coroutine_handle<> h) {
  Kernel::ProcessRuntime* proc = kernel->current_;
  IFSYN_ASSERT_MSG(proc, "kernel awaitable used outside a process");
  proc->resume_point = h;

  switch (kind) {
    case WaitKind::kTime:
      proc->wait = WaitKind::kTime;
      proc->wake_time = kernel->time_ + cycles;
      kernel->timed_.push(TimedEntry{proc->wake_time, proc->index});
      return;
    case WaitKind::kEvent:
      kernel->link_waiter(*proc, sensitivity_ids, WaitKind::kEvent);
      return;
    case WaitKind::kCondition:
      if (condition(condition_ctx)) {
        // Level-sensitive wait-until: condition already holds, so do not
        // actually block -- re-queue as ready (see header comment).
        kernel->make_ready(*proc);
        return;
      }
      proc->condition = condition;
      proc->condition_ctx = condition_ctx;
      proc->cond_sensitized = cond_sensitized;
      if (cond_sensitized) {
        kernel->link_waiter(*proc, sensitivity_ids, WaitKind::kCondition);
        return;
      }
      proc->wait = WaitKind::kCondition;
      proc->cond_slot = static_cast<std::uint32_t>(
          kernel->condition_waiters_.size());
      kernel->condition_waiters_.push_back(proc);
      return;
    case WaitKind::kBusLock: {
      BusLockState& lock = kernel->bus_locks_[bus_id];
      if (lock.holder == nullptr) {
        kernel->grant_bus(lock, proc, /*contended=*/false);
        kernel->make_ready(*proc);  // got it; continue this dispatch round
        return;
      }
      lock.waiters.push_back(proc);
      proc->wait = WaitKind::kBusLock;
      proc->lock_wait_start = kernel->time_;
      return;
    }
    case WaitKind::kReady:
    case WaitKind::kDone:
      IFSYN_ASSERT_MSG(false, "invalid awaiter kind");
  }
}

Kernel::Awaiter Kernel::wait_on(const std::vector<FieldKey>& sensitivity) {
  IFSYN_ASSERT_MSG(current_, "kernel awaitable used outside a process");
  // `field==""` keys become whole-signal wildcard handles. Unknown keys
  // resolve to nothing: they could never match a commit under the old
  // scan either.
  std::vector<SignalId>& resolved = current_->named_wait;
  resolved.clear();
  for (const FieldKey& want : sensitivity) {
    const SignalId id = want.field.empty() ? find_wildcard_id(want.signal)
                                           : find_signal_id(want);
    if (id != kInvalidSignalId) resolved.push_back(id);
  }
  return wait_on(std::span<const SignalId>(resolved));
}

Kernel::Awaiter Kernel::acquire_bus(const std::string& bus) {
  return acquire_bus(bus_id(bus));
}

void Kernel::grant_bus(BusLockState& lock, ProcessRuntime* next,
                       bool contended) {
  lock.holder = next;
  lock.hold_start = time_;
  ++lock.stats.acquisitions;
  if (contended) ++lock.stats.contended_acquisitions;
}

void Kernel::release_bus(const std::string& bus) { release_bus(bus_id(bus)); }

void Kernel::release_bus(BusId id) {
  BusLockState& lock = bus_locks_[id];
  IFSYN_ASSERT_MSG(lock.holder == current_,
                   "bus " << lock.name << " released by non-holder");
  const std::uint64_t held = time_ - lock.hold_start;
  lock.stats.hold_cycles += held;
  hold_hist_.observe(held);
  if (lock.waiters.empty()) {
    lock.holder = nullptr;
    return;
  }
  ProcessRuntime* next = lock.waiters.front();
  lock.waiters.pop_front();
  const std::uint64_t waited = time_ - next->lock_wait_start;
  next->stats.bus_wait_cycles += waited;
  lock.stats.wait_cycles += waited;
  wait_hist_.observe(waited);
  grant_bus(lock, next, /*contended=*/true);
  make_ready(*next);
  ++stats_.wakeups_bus_grant;
}

// ---- scheduler -------------------------------------------------------------

void Kernel::run_ready() {
  // Round-robin by process index with a wrap-around cursor. This touches
  // only set bits yet dispatches in exactly the order the historical
  // full-vector sweep did: a process waking at an index the cursor has
  // passed runs in the next round, one it has not reached runs in this
  // round — the determinism contract for bus-grant interleavings.
  std::size_t cursor = 0;
  while (ready_count_ > 0) {
    const std::size_t idx = next_ready(cursor);
    if (idx == npos) {
      cursor = 0;
      continue;
    }
    ready_bits_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --ready_count_;
    cursor = idx + 1;
    ProcessRuntime* proc = processes_[idx].get();
    current_ = proc;
    // Sentinel: if the coroutine runs to completion it never calls an
    // awaiter, so the wait kind stays kDone until finish_process decides.
    proc->wait = WaitKind::kDone;
    proc->resume_point.resume();
    current_ = nullptr;
    if (proc->task.done()) {
      finish_process(*proc);
    }
    if (!run_status_.is_ok()) return;
  }
}

void Kernel::finish_process(ProcessRuntime& proc) {
  try {
    proc.task.rethrow_if_failed();
  } catch (const std::exception& e) {
    run_status_ = simulation_error(std::string("process ") + proc.name +
                                   " failed: " + e.what());
    proc.wait = WaitKind::kDone;
    return;
  }
  if (!proc.stats.completed) {
    proc.stats.completed = true;
    proc.stats.finish_time = time_;
  }
  ++proc.stats.activations;
  if (proc.restarts) {
    proc.task = proc.factory();
    proc.resume_point = proc.task.handle();
    make_ready(proc);
  } else {
    proc.wait = WaitKind::kDone;
  }
}

bool Kernel::commit_deltas() {
  if (dirty_.empty()) return false;
  if (++delta_ > kMaxDeltasPerInstant) {
    run_status_ = simulation_error(
        "delta cycle limit exceeded at t=" + std::to_string(time_) +
        " (oscillating zero-delay loop?)");
    return false;
  }
  ++stats_.delta_cycles;
  if (delta_ > stats_.max_deltas_in_instant) {
    stats_.max_deltas_in_instant = delta_;
  }

  changed_.clear();
  for (const SignalId id : dirty_) {
    FieldState& state = fields_[id];
    if (!state.has_pending) continue;  // committed via a duplicate entry
    state.has_pending = false;
    if (state.pending != state.current) {
      state.current = std::move(state.pending);
      changed_.push_back(id);
      ++stats_.signal_commits;
      if (trace_enabled_) {
        if (trace_.size() >= trace_limit_) {
          run_status_ = simulation_error(
              "signal trace exceeded cap of " +
              std::to_string(trace_limit_) + " entries at t=" +
              std::to_string(time_) +
              " (raise Kernel::set_trace_limit or disable tracing)");
          return false;
        }
        trace_.push_back(TraceEntry{time_, delta_, keys_[id], state.current});
      }
    }
  }
  dirty_.clear();
  if (changed_.empty()) return true;  // commit happened, no events

  // Event waiters: walk only the changed signals' waiter lists. Every
  // linked node is a live registration, so each wake unlinks the process
  // from all its lists (a process sensitive to several changed signals
  // still wakes exactly once).
  for (const SignalId id : changed_) {
    FieldState& state = fields_[id];
    while (EventNode* node = state.waiters) {
      ProcessRuntime* proc = node->proc;
      unlink_waiter(*proc);
      make_ready(*proc);
      ++stats_.wakeups_event;
    }
    while (EventNode* node = wildcard_waiters_[state.signal_ord]) {
      ProcessRuntime* proc = node->proc;
      unlink_waiter(*proc);
      make_ready(*proc);
      ++stats_.wakeups_event;
    }
  }

  // Condition waiters without a read set: re-evaluate every one. They
  // come first, so a condition that raises does so before any read-set
  // condition is looked at. Conditions read committed state, so the order
  // cannot change outcomes; swap-removal keeps each wake O(1).
  std::size_t i = 0;
  while (i < condition_waiters_.size()) {
    if (!wake_if_true(*condition_waiters_[i])) ++i;
  }

  // Read-set condition waiters: only those linked to a changed field can
  // have changed value, and each is evaluated at most once per commit
  // (the epoch stamp) however many of its fields changed. A wake unlinks
  // only the woken process's nodes, so the saved successor stays linked.
  ++commit_epoch_;
  for (const SignalId id : changed_) {
    EventNode* node = fields_[id].cond_waiters;
    while (node != nullptr) {
      EventNode* next = node->next;
      ProcessRuntime& proc = *node->proc;
      if (proc.cond_epoch != commit_epoch_) {
        proc.cond_epoch = commit_epoch_;
        wake_if_true(proc);
      }
      node = next;
    }
  }
  return true;
}

bool Kernel::advance_time(std::uint64_t max_time) {
  if (timed_.empty()) return false;
  const std::uint64_t next = timed_.top().time;
  if (next > max_time) {
    run_status_ = simulation_error(
        "simulation exceeded max_time=" + std::to_string(max_time));
    return false;
  }
  time_ = next;
  delta_ = 0;
  ++stats_.instants;
  while (!timed_.empty() && timed_.top().time == next) {
    ProcessRuntime& proc = *processes_[timed_.top().index];
    timed_.pop();
    make_ready(proc);
    ++stats_.wakeups_time;
  }
  return true;
}

SimResult Kernel::run(std::uint64_t max_time) {
  run_status_ = Status::ok();
  time_ = 0;
  delta_ = 0;
  stats_ = KernelStats{};
  stats_.instants = 1;  // t=0 always executes
  trace_.clear();  // each run records its own waveform
  for (const auto& [name, id] : bus_index_) {
    BusLockState& lock = bus_locks_[id];
    lock.holder = nullptr;
    lock.waiters.clear();
    lock.stats = BusStats{};
    lock.stats.bus = name;
  }
  if (obs_.metrics != nullptr) {
    // Cycle-valued histograms over per-acquisition bus hold ("transaction
    // length") and per-grant wait ("arbitration latency") durations.
    const std::vector<std::uint64_t> bounds = obs::exponential_bounds(1 << 16);
    hold_hist_.reset(&obs_.metrics->histogram("sim.bus_hold_cycles", bounds));
    wait_hist_.reset(&obs_.metrics->histogram("sim.bus_wait_cycles", bounds));
  } else {
    hold_hist_.reset(nullptr);
    wait_hist_.reset(nullptr);
  }
  // The engine publishes its run-local counters when the run ends, also
  // when a condition throws out of the loop below.
  struct RunEnd {
    const std::function<void()>& flush;
    ~RunEnd() {
      if (flush) flush();
    }
  } run_end{run_end_};

  // Rebuild the indexed scheduler state from scratch: any waiter lists,
  // heap entries or uncommitted values left by a previous (possibly
  // aborted) run are stale.
  timed_ = {};
  condition_waiters_.clear();
  dirty_.clear();
  for (FieldState& field : fields_) {
    field.has_pending = false;
    field.waiters = nullptr;
    field.cond_waiters = nullptr;
  }
  for (EventNode*& head : wildcard_waiters_) head = nullptr;
  ready_bits_.assign((processes_.size() + 63) / 64, 0);
  ready_count_ = 0;

  for (auto& proc : processes_) {
    proc->node_count = 0;
    proc->task = proc->factory();
    proc->resume_point = proc->task.handle();
    proc->stats = ProcessStats{};
    proc->stats.name = proc->name;
    make_ready(*proc);
  }

  while (run_status_.is_ok()) {
    run_ready();
    if (!run_status_.is_ok()) break;
    if (commit_deltas()) continue;
    if (!advance_time(max_time)) break;
  }

  SimResult result;
  result.status = run_status_;
  result.end_time = time_;
  result.processes.reserve(processes_.size());
  for (const auto& proc : processes_) {
    // A process parked on a bus-lock queue at quiescence never completed.
    result.processes.push_back(proc->stats);
  }
  stats_.trace_entries = trace_.size();
  result.kernel = stats_;
  result.buses.reserve(bus_locks_.size());
  for (const auto& [name, id] : bus_index_) {
    result.buses.push_back(bus_locks_[id].stats);
  }
  if (obs_.metrics != nullptr) flush_metrics(result);
  return result;
}

void Kernel::flush_metrics(const SimResult& result) {
  hold_hist_.flush();
  wait_hist_.flush();
  obs::MetricsRegistry& reg = *obs_.metrics;
  reg.counter("sim.runs").add(1);
  reg.counter("sim.simulated_cycles").add(result.end_time);
  reg.counter("sim.instants").add(stats_.instants);
  reg.counter("sim.delta_cycles").add(stats_.delta_cycles);
  reg.counter("sim.signal_commits").add(stats_.signal_commits);
  reg.counter("sim.trace_entries").add(stats_.trace_entries);
  reg.counter("sim.wakeups.time").add(stats_.wakeups_time);
  reg.counter("sim.wakeups.event").add(stats_.wakeups_event);
  reg.counter("sim.wakeups.condition").add(stats_.wakeups_condition);
  reg.counter("sim.wakeups.bus_grant").add(stats_.wakeups_bus_grant);
  reg.histogram("sim.deltas_per_instant", obs::exponential_bounds(1 << 16))
      .observe(stats_.max_deltas_in_instant);
  for (const BusStats& bus : result.buses) {
    const std::string prefix = "sim.bus." + bus.bus + ".";
    reg.counter(prefix + "acquisitions").add(bus.acquisitions);
    reg.counter(prefix + "contended_acquisitions")
        .add(bus.contended_acquisitions);
    reg.counter(prefix + "hold_cycles").add(bus.hold_cycles);
    reg.counter(prefix + "wait_cycles").add(bus.wait_cycles);
  }
  std::uint64_t bus_wait = 0;
  for (const ProcessStats& proc : result.processes) {
    bus_wait += proc.bus_wait_cycles;
  }
  reg.counter("sim.process_bus_wait_cycles").add(bus_wait);
}

}  // namespace ifsyn::sim
