/* Monotonic clock for span timing.

   Unix.gettimeofday is wall-clock time: an NTP step (or a manual clock
   change) between two reads yields a negative duration.
   CLOCK_MONOTONIC never steps; nanoseconds since boot fit comfortably in
   OCaml's 63-bit int (2^62 ns is ~146 years), so the reading is returned
   as an immediate — no allocation, [@@noalloc] on the OCaml side. */

#include <caml/mlvalues.h>
#include <time.h>

CAMLprim value fsam_monotonic_now_ns(value unit)
{
  (void)unit;
  struct timespec ts;
#ifdef CLOCK_MONOTONIC
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
#endif
  {
    /* CLOCK_REALTIME is required by POSIX; used only if monotonic fails. */
    clock_gettime(CLOCK_REALTIME, &ts);
  }
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
