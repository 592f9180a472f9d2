/**
 * @file
 * Host-speed reference: a fixed computation that shares no code with the
 * simulator, timed next to every repetition. The host this benchmark is
 * meant for is shared with other tenants, and its speed drifts by more
 * than the benchmark's bounds over tens of minutes; run time divided by
 * the reference's time cancels most of that drift, while a change to the
 * simulator moves the run time alone.
 */

#pragma once

namespace e2e
{

/**
 * Runs the reference computation once on each of @p threads threads at
 * the same time, and returns the host seconds until all have finished.
 * A workload that keeps N host threads busy is compared with the
 * reference on N threads.
 */
double hostReference(unsigned threads);

} // namespace e2e
