(** Request-scoped causal profiling (§3.8).

    Two preallocated, disarmed-by-default facilities sharing the Trace
    ring's overhead discipline (disarmed: one load-and-branch; armed:
    int/pointer stores only, zero minor-heap words):

    - {b span ids} minted per syscall from per-domain blocks, threaded
      through the fastpath, the netfs wire format and lease-break
      delivery so cross-client causality renders as one connected trace;
    - a {b space-saving top-K sketch} attributing cache efficacy (hits,
      misses, negatives, retries, lease fallbacks, invalidations) to
      individual directories with exact-count error bounds.

    Global state, like {!Trace}; call {!reset} between experiments. *)

val armed : bool ref
(** Master switch for span minting and sketch recording.  Prefer
    {!arm}/{!disarm}; exposed for armed-path tests. *)

val arm : unit -> unit
val disarm : unit -> unit

val reset : unit -> unit
(** Clear the sketch and the calling domain's current span.  Does not
    change {!armed}. *)

(** {1 Request-scoped spans} *)

val span_enter : unit -> int
(** Mint a fresh span id and install it as the calling domain's current
    span.  Returns 0 when disarmed.  Zero-allocation. *)

val current : unit -> int
(** The calling domain's current span id; 0 = no span. *)

val set_current : int -> unit
(** Install [id] as the calling domain's current span (trace replay /
    tests; integration points use {!span_enter} and {!with_span}). *)

val with_span : int -> (unit -> 'a) -> 'a
(** Run under span [id], restoring the caller's span afterwards — the
    server side of a wire message carrying the client's span.  Allocates
    (closure); RPC-path only, never on the warm hit. *)

(** {1 Per-directory cache efficacy (space-saving top-K)} *)

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

val hh_record : int -> int -> string -> int -> unit
(** [hh_record owner key label metric] attributes one event of [metric]
    to the directory with superblock id [owner] and dentry id [key] (label
    kept by pointer for rendering); dentry ids repeat across dcaches, so
    both name a slot.  Space-saving
    update: monitored keys increment; unmonitored keys evict the minimum
    slot and inherit its total as their error bound.  Zero-allocation;
    no-op when disarmed. *)

type hot_slot = {
  h_owner : int;  (** the directory's superblock id *)
  h_key : int;  (** its dentry id *)
  h_label : string;
  h_total : int;  (** estimated count; >= true count *)
  h_err : int;  (** overcount bound: true count >= h_total - h_err *)
  h_metrics : int array;  (** indexed by [m_hit] … [m_inval] *)
}

val hot : unit -> hot_slot list
(** Resident slots, sorted by estimated total descending.  While fewer
    than {!hh_k} distinct keys have been recorded, every [h_err] is 0 and
    counts are exact. *)

val hot_to_string : unit -> string
(** Render for [/proc/dcache/hot]: header lines
    [armed]/[k]/[recorded]/[evictions], then one
    [dir <owner>:<key> <label> total <t> err <e> hit <n> … inval <n>] line per
    slot in {!hot} order. *)
