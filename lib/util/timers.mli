(** The kernel's timers, declared once, and the table each dcache owns.

    A timer keeps one {!Stats.Lhist} row per domain slot (domain id mod 8,
    as {!Stats.Counter}); its exact sum and count give the Fig. 1 and
    Fig. 3 totals, its buckets the percentiles of /proc/dcache/histograms.
    Every timer reads {!Clock.monotonic_ns}.  A hook is a start/stop pair
    with no closure:
    {[
      let t0 = Timers.start tm.Timers.lookups in
      ... the timed work ...
      Timers.stop tm Timers.scan_hash t0
    ]}
    Disarmed, [start] returns 0 without reading the clock and [stop] is a
    branch on that 0.  The warm probe keeps the same pair module-local
    ([Fastpath.phase_start]/[phase_stop]) so that disarmed it makes no
    call.  A kernel arms its table by group: {!Syscalls} for
    Fig. 1, {!Lookups} for Fig. 3 and the per-outcome histograms.  Two
    domains sharing a slot may lose a sample to a race; the figures that
    need exact totals are recorded from one domain. *)

type id = int

(** {1 Fig. 1: path-based syscall classes (group [Syscalls])} *)

val access_stat : id
val open_ : id
val chmod_chown : id
val unlink : id
val other_path : id

(** {1 Fig. 3: the phases of a lookup (group [Lookups])} *)

val init : id
val permission : id
val scan_hash : id
val table_lookup : id
val finalize : id

(** {1 Lookup latency by outcome class (group [Lookups])} *)

val fastpath_hit : id
val fallback_hit : id
val slowpath : id
val negative : id
val eio : id

val resume_depth : id
(** Components skipped by each prefix-resumed miss (§3.5): depths, not
    nanoseconds, recorded whether the table is armed or not. *)

val syscalls : id list
val phases : id list
val outcomes : id list

val name : id -> string

(** {1 The table} *)

type group = Syscalls | Lookups

type t = private {
  mutable syscalls : bool;  (** group [Syscalls] is armed *)
  mutable lookups : bool;  (** group [Lookups] is armed *)
  rows : Stats.Lhist.t array;
}

val create : unit -> t
val arm : t -> group -> bool -> unit

val start : bool -> int
(** [start armed] reads the clock when [armed] and returns 0 otherwise. *)

val stop : t -> id -> int -> unit
(** [stop t id t0] charges the time since [t0] to [id]; nothing when [t0]
    is 0.  Allocation-free. *)

val record : t -> id -> int -> unit
(** One sample on the calling domain's row.  Allocation-free. *)

val get : t -> id -> Stats.Lhist.t
(** Every domain's row of [id], merged into a fresh histogram. *)

val reset : t -> unit

val histograms_to_string : t -> string
(** One [class <name> n … p50 … p90 … p99 … max … mean …] line per
    outcome class, then one for [resume_depth]. *)
