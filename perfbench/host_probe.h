// A fixed unit of work owned by the benchmark, timed to gauge how fast this
// host runs right now.
//
// On a shared host the speed available to one thread drifts by a quarter
// or more over minutes, as other tenants come and go.  The probe mixes what
// the simulator's hot path does (heap push/pop, hash-map updates, scans of
// a vector that overflows L2), so its time tracks that drift.  It lives in
// its own library, built without the repository's compile options, so no
// change to the library or its build can speed it up or slow it down.
#pragma once

namespace perfbench {

/// Nominal probe time on the host the benchmark was defined on (4-vCPU
/// Intel Xeon at 2.0 GHz, GCC 12.2, RelWithDebInfo, quiet neighbours).
inline constexpr double kReferenceProbeS = 0.020;

/// Seconds the probe takes now, on the calling thread.
double host_probe_s();

}  // namespace perfbench
