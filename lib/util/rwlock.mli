(** Reader-writer lock with an atomic reader count.

    The Linux dcache read path is RCU; we model the same read-mostly shape
    with a lock whose read side is two atomic operations and never blocks
    other readers, so lookup scalability (paper Fig. 8) is observable under
    OCaml 5 domains. Writers exclude both readers and other writers. *)

type t

val create : unit -> t
val read_lock : t -> unit
val read_unlock : t -> unit
val write_lock : t -> unit
val write_unlock : t -> unit
val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a

val write_held : t -> bool
(** True while the {e calling domain} holds the write side.  Another
    domain's write section never makes it true, so callers may ask with
    no lock held and run their body inline only when they are the holder. *)

val acquisition_counts : unit -> int * int
(** [(reads, writes)] acquired by the {e calling domain} since its last
    reset, across all locks.  Per-domain (DLS), so a reader domain's count
    stays exact while other domains hammer the same locks.  Test oracle
    for the lockless fastpath's "zero rwlock acquisitions" guarantee. *)

val reset_acquisition_counts : unit -> unit
(** Reset the calling domain's counts. *)
