// perfbench: runs one benchmark workload and prints its raw measurements
// as one JSON line. Invoked by perfbench/run.py, which passes every
// workload parameter from perfbench/workloads.json as --key=value:
//
//   perfbench --workload=explore --seed=1 --seconds=10 [--trace_out=t.json]
//
// With --trace_out the run records spans and writes them there as
// Chrome trace-event JSON at exit.
#include <cstdio>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  const perfbench::Flags flags(argc, argv);
  perfbench::Tracer tracer(flags.Has("trace_out"));
  const std::string kind = flags.Str("workload");
  perfbench::RawResult raw;
  if (kind == "explore") {
    raw = perfbench::RunExplore(flags, &tracer);
  } else if (kind == "serve") {
    raw = perfbench::RunServe(flags, &tracer);
  } else if (kind == "write") {
    raw = perfbench::RunWrite(flags, &tracer);
  } else {
    perfbench::Fail("unknown workload kind " + kind);
  }
  if (tracer.enabled() && !tracer.WriteChromeJson(flags.Str("trace_out"))) {
    perfbench::Fail("cannot write " + flags.Str("trace_out"));
  }
  std::printf("%s\n", perfbench::ToJson(raw).c_str());
  return 0;
}
