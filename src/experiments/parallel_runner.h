// Peak-RSS probe for benchmark/'s tangram_bench, its only caller.
//
// The file is named for the thread-pool sweep runner it used to hold.  That
// runner is gone: every sweep runs its cells one after another on the
// calling thread.  tangram_bench includes this header by name, so the probe
// stays here until it moves into benchmark/ along with a change to that
// program.

#pragma once

namespace tangram::experiments {

// Peak resident-set high-water mark of this process in kB (VmHWM from
// /proc/self/status); -1 when the probe is unavailable (non-Linux).
// Monotone over the process lifetime.
[[nodiscard]] long peak_rss_kb();

}  // namespace tangram::experiments
