#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* Process CPU time in seconds at the clock's full resolution. Sys.time
   goes through getrusage, which rounds to microseconds: too coarse for
   the serve workload's ~15 us cache hits. */
value bench_cpu_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
