(** Wall-clock time helpers for measurement code. *)

val now_ns : unit -> int64
(** Monotonic-enough wall clock in nanoseconds (from [Unix.gettimeofday]). *)

val monotonic_ns : unit -> int
(** [CLOCK_MONOTONIC] in nanoseconds as a native int: real ns resolution
    (the wall clock above only resolves µs).  Reads through an [@unboxed]
    [@noalloc] C stub and measures allocation-free in this build, but that
    relies on compiler inlining — gate clock reads behind an armed flag on
    paths that must guarantee zero allocation. *)

val time_ns : (unit -> 'a) -> 'a * int64
(** [time_ns f] runs [f] and returns its result and elapsed nanoseconds. *)
