// Programmable switch (paper Fig. 6).
//
// Routes spike flits between the mPEs and switches of a NeuroCell and
// implements the section-3.2 zero-check: an all-zero flit is dropped
// before traversal, saving the hop energy.  The NoC fabric (src/noc/)
// only needs the switch's counters, so a transfer is counted in closed
// form rather than queued flit by flit.
#pragma once

#include <algorithm>
#include <cstddef>

namespace resparc::core {

/// Counters of one switch.
struct SwitchCounters {
  std::size_t forwarded = 0;   ///< flits that traversed the switch
  std::size_t dropped_zero = 0;///< all-zero flits suppressed by zero-check
  std::size_t buffered_max = 0;///< high-water mark of the data buffer
};

/// One programmable switch: its zero-check and its traffic counters.
class ProgrammableSwitch {
 public:
  /// `zero_check` enables the event-driven drop logic.
  explicit ProgrammableSwitch(bool zero_check) : zero_check_(zero_check) {}

  /// Passes one transfer through the switch: `sent` non-zero flits and
  /// `zeros` all-zero ones arrive in one burst and the buffer drains
  /// before the next transfer (arbitration is FIFO across senders).  The
  /// zero-check drops the zero flits; the rest are buffered together, so
  /// the buffer peaks at their count.  Returns the flits that traversed.
  std::size_t pass(std::size_t sent, std::size_t zeros) {
    std::size_t queued = sent;
    if (zero_check_)
      counters_.dropped_zero += zeros;
    else
      queued += zeros;
    counters_.forwarded += queued;
    counters_.buffered_max = std::max(counters_.buffered_max, queued);
    return queued;
  }

  /// Counters since construction or the last reset_counters().
  const SwitchCounters& counters() const { return counters_; }
  /// Zeroes every counter.
  void reset_counters() { counters_ = SwitchCounters{}; }

 private:
  bool zero_check_;
  SwitchCounters counters_{};
};

}  // namespace resparc::core
