(** Monotonic clock reads for durations.

    [Unix.gettimeofday] is subject to NTP steps; a step between two reads
    yields a negative duration. These readings come from [clock_gettime(CLOCK_MONOTONIC)]
    and never go backwards; the elapsed helpers additionally clamp at 0 as
    defence in depth (e.g. against a non-monotonic fallback clock). Use the
    monotonic clock for every duration; keep [Unix.gettimeofday] only for
    absolute wall-clock instants (trace epochs, report headers). *)

val now_ns : unit -> int
(** Nanoseconds on the monotonic clock. The origin is unspecified (typically
    boot time) — only differences are meaningful. *)

val now_us : unit -> int
(** [now_ns () / 1000]. *)

val now_s : unit -> float
(** Monotonic seconds as a float — for duration arithmetic in seconds. *)

val elapsed_us : since_us:int -> int
(** [max 0 (now_us () - since_us)]. *)

val elapsed_s : since_s:float -> float
(** [Float.max 0. (now_s () -. since_s)]. *)
