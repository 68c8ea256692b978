let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* CLOCK_MONOTONIC through bechamel's C stub: true nanosecond resolution
   where [gettimeofday] only resolves microseconds (a warm fastpath hit is
   a few hundred ns — invisible to the wall clock above), and immune to
   wall-clock steps.  The stub is an [@unboxed] [@noalloc] external, and
   with the immediate [Int64.to_int] the whole read measures 0 minor words
   in the alloc benchmark — but that depends on the compiler inlining a
   cross-module one-liner, so allocation-free paths still gate clock reads
   behind an armed flag rather than relying on it. *)
let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())

let time_ns f =
  let t0 = now_ns () in
  let result = f () in
  let t1 = now_ns () in
  (result, Int64.sub t1 t0)
