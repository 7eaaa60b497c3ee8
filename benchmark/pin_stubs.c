/* Pin the calling thread to the CPU it is running on.  Threads and
   processes it starts later inherit the mask, so the harness, its
   set-up children and its daemon all share one core with the
   calibration loop that rescales their times. */

#define _GNU_SOURCE
#include <sched.h>
#include <unistd.h>
#include <caml/mlvalues.h>

value hfbench_pin_to_current_cpu(value unit)
{
  (void)unit;
  int cpu = sched_getcpu();
  if (cpu < 0) return Val_int(-1);
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}

/* The machine's online CPUs, which a pinned process's affinity mask
   no longer shows. */
value hfbench_online_cpus(value unit)
{
  (void)unit;
  return Val_long(sysconf(_SC_NPROCESSORS_ONLN));
}
