(** Striped lock table: a fixed power-of-two array of (mutex, seqcount)
    pairs plus per-stripe acquisition/contention counters.

    The sharded mutation path hashes a dentry (or DLHT bucket) to a stripe
    and serializes mutations per-stripe instead of through the global write
    lock.  Each stripe's seqcount is bracketed inside the mutex hold, so a
    lockless reader that recorded the stripe's seq before probing can
    detect any overlapping mutation at commit time.

    Deadlock discipline: never take a second stripe except through
    {!lock2}, which acquires in index order. *)

type t

val create : int -> t
(** [create n] builds a table of [n] stripes.
    @raise Invalid_argument unless [n] is a positive power of two. *)

val size : t -> int
val index : t -> int -> int
(** [index t hash] maps a hash to its stripe: [hash land (size t - 1)]. *)

val seq : t -> int -> Seqcount.t
(** The stripe's seqcount — odd while a mutation is in flight. *)

val lock : t -> int -> unit
(** Acquire stripe [i]: mutex (counting contention on [try_lock] failure,
    stamping {!Trace.ev_stripe_contended}), then [Seqcount.write_begin]. *)

val unlock : t -> int -> unit

val lock2 : t -> int -> int -> unit
(** Acquire two stripes in index order; [i = j] collapses to one. *)

val unlock2 : t -> int -> int -> unit

val with_lock2 : t -> int -> int -> (unit -> 'a) -> 'a
(** [lock2] around [f], released on every exit, exceptions included: a
    leaked stripe would leave its seqcount odd and wedge every lockless
    probe that records it. *)

val with_lock : t -> int -> (unit -> 'a) -> 'a

val acquisitions : t -> int -> int
val contentions : t -> int -> int

val totals : t -> int * int
(** [(acquired, contended)] summed over all stripes. *)

val to_string : t -> string
(** Header ([stripes]/[acquired]/[contended]) plus one
    [stripe index acquired contended] line per stripe. *)
