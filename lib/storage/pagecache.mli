(** Write-back page cache over a {!Blockdev}.

    Models the kernel buffer/page cache: block reads hit memory when cached,
    dirty pages are written back on eviction or [flush], and [drop_caches]
    reproduces the paper's cold-cache experiments (Table 2).

    Eviction is CLOCK: a page arrives unmarked, a hit marks it (and moves
    nothing), and the hand spares a marked page once, clearing its mark.
    So a page hit since the hand last passed outlives one that was not. *)

type t

val create : ?capacity_pages:int -> Blockdev.t -> t
(** [capacity_pages] defaults to 4096 (16 MB of 4 KB pages). *)

val block_size : t -> int

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** [with_page t n f] runs [f] on the cached page for block [n] (reading it
    in on a miss).  [f] must not retain or mutate the page; when
    {!Dcache_util.Fault.checks_enabled} is set a checksum taken around [f]
    turns a mutation into an immediate [Failure]. *)

val with_page_mut : t -> int -> (bytes -> 'a) -> 'a
(** Like {!with_page} but the page is marked dirty; [f] may mutate it. *)

val read_page : t -> int -> bytes
(** Copying read of a whole block. *)

val write_page : t -> int -> bytes -> unit
(** Replace a whole block (marks it dirty; must be [block_size] bytes). *)

val flush : t -> unit
(** Write back all dirty pages. *)

val drop_caches : t -> unit
(** Flush, then discard every cached page: the next access hits the disk. *)

val crash : t -> int
(** Simulated power loss: discard every cached page {e without} writing
    dirty ones back, leaving the device holding only what was flushed or
    evicted beforehand.  Returns the number of dirty pages lost.  Mount a
    fresh cache over the device to model the reboot. *)

val hits : t -> int
val misses : t -> int
val writebacks : t -> int
val cached_pages : t -> int
val reset_stats : t -> unit
