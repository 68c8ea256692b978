(** Per-directory cache efficacy (§3.8): a space-saving top-K sketch.

    Each dcache creates one, so [/proc/dcache/hot] reads only its own
    kernel.  It attributes hits, misses, negatives, retries, lease
    fallbacks and invalidations to individual directories with
    exact-count error bounds.  Recording is armed by {!Trace.armed}:
    disarmed one load-and-branch, armed int/pointer stores only, zero
    minor-heap words. *)

type t

val create : unit -> t

val hh_k : int
(** Number of sketch slots. *)

(** Metric column indices within a slot. *)

val m_hit : int
val m_miss : int
val m_neg : int
val m_retry : int
val m_lease : int
val m_inval : int
val n_metrics : int

val metric_names : string array

val record : t -> int -> string -> int -> unit
(** [record t key label metric] attributes one event of [metric] to the
    directory with dentry id [key] (label kept by pointer for rendering).
    Space-saving update: monitored keys increment; unmonitored keys evict
    the minimum slot and inherit its total as their error bound.
    Zero-allocation; no-op unless {!Trace.armed}. *)

type hot_slot = {
  h_key : int;  (** the directory's dentry id *)
  h_label : string;
  h_total : int;  (** estimated count; >= true count *)
  h_err : int;  (** overcount bound: true count >= h_total - h_err *)
  h_metrics : int array;  (** indexed by [m_hit] … [m_inval] *)
}

val hot : t -> hot_slot list
(** Resident slots, sorted by estimated total descending.  While fewer
    than {!hh_k} distinct keys have been recorded, every [h_err] is 0 and
    counts are exact. *)

val to_string : t -> string
(** Render for [/proc/dcache/hot]: header lines
    [armed]/[k]/[recorded]/[evictions], then one
    [dir <key> <label> total <t> err <e> hit <n> … inval <n>] line per
    slot in {!hot} order. *)

val reset : t -> unit
