// pm2bench -- the host-speed reference behind the end-to-end host metrics.
//
// A shared host changes speed for seconds to minutes at a time (other
// tenants, frequency), by up to 40 %, and CPU time does not hide it. The
// benchmark therefore times a fixed calibration kernel next to every
// episode and reports host times scaled to a reference speed: measured time
// x kCalibrationReferenceS / kernel time over the same stretch of the run.
// The kernel is the benchmark's own code, never the program's, so a change
// to pm2sim moves the scaled times exactly as it moves the raw ones.
#pragma once

namespace pm2bench {

/// Kernel CPU time that defines the reference speed (scale factor 1): the
/// kernel's median on a 4-vCPU Intel Xeon virtual machine at its fast speed.
inline constexpr double kCalibrationReferenceS = 0.7e-3;

/// Run the calibration kernel once -- a discrete-event loop in miniature:
/// a binary-heap event queue, random reads and writes of a 256 KB state
/// array, and small allocations -- and return its CPU time in seconds.
double calibration_kernel_s();

}  // namespace pm2bench
