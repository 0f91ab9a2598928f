// The three benchmark workloads. Each builds its inputs from --seed,
// sets up (timed as setup_s), measures for --seconds, then checks every
// answer outside the timed region. With tracing on, each also records
// spans around the public calls into every layer it exercises.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "gir/batch_engine.h"
#include "harness.h"

namespace perfbench {

// Four closed-loop analyst clients, each calling GirEngine::ComputeGir
// on fresh random weights over an ANTI dataset (FP Phase 2 dominates).
RawResult RunExplore(const Flags& flags, Tracer* tracer);

// Zipf-keyed open-loop trace replayed through serve::ReplayTrace on a
// cached, shared-traversal BatchEngine.
RawResult RunServe(const Flags& flags, Tracer* tracer);

// One closed-loop WAL-logged writer beside closed-loop Zipf readers on
// one BatchEngine, then a timed reopen that replays the measured tail.
RawResult RunWrite(const Flags& flags, Tracer* tracer);

// Traced runs: records one ComputeBatch call as a "gir.batch" span with
// its BatchStats as counts, plus each computed query's GirStats split
// as child spans laid end to end from the batch start (the durations
// are measured; their placement inside the batch is not).
void TraceBatch(Tracer* tracer, double start_us, double end_us,
                const gir::BatchResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
