(** Direct Lookup Hash Table (paper §3.1, Fig. 4).

    A second, per-mount-namespace hash table that maps the {e signature of a
    full canonical path} straight to a dentry, so a warm lookup is one probe
    instead of a component-at-a-time walk.  Lazily populated after slowpath
    walks; entries are shot down on renames, mount changes and evictions.

    A dentry lives in at most one DLHT at a time — across namespaces and
    mount aliases — favouring locality and keeping invalidation tractable
    (§4.3).  The table is keyed by the signature's 22-bit bucket index
    masked to the current size; chains compare the 236 signature bits only
    (never the path string).

    Buckets are intrusive: the chain links live on the dentry itself
    ([d_dlht_next]/[d_dlht_prev]), so insert and remove are O(1) pointer
    splices and probes allocate nothing.

    The table holds one bucket array.  When it holds more than two entries
    per bucket, the insert that crossed the line doubles it in one pass:
    every intrusive chain is re-spliced into the new array, which is then
    published.  Every insert (so every rehash) and scrub runs under the
    dcache write lock; with [stripes] attached, a {!remove} splice instead
    runs under a per-stripe lock, so sharded shootdowns from several writer
    domains proceed concurrently.  Lockless fastpath probes are validated
    against the dcache write sequence — plus the probed stripe's seqcount
    when sharded — by the caller, so a probe that races a rehash retries. *)

open Dcache_vfs.Types
module Signature = Dcache_sig.Signature
module Locktab = Dcache_util.Locktab

type t

val of_namespace :
  ?stripes:int -> buckets:int -> counters:Dcache_util.Stats.Counter.t -> namespace -> t
(** The namespace's table, created on first use (stored in [ns_ext]) with
    [buckets] initial buckets; entries it quarantines count in
    [counters].  [stripes] (default 0 = none) attaches a sharded-mutation
    lock table, clamped to [buckets] so the stripe mask stays a submask of
    every table mask: one bucket never spans stripes, before or after a
    doubling.
    @raise Invalid_argument if [buckets] is not a positive power of two
    (the bucket index is computed by masking the signature's low bits). *)

val locktab : t -> Locktab.t option
(** The table's stripe locks, when sharded.  Readers index it with
    [Locktab.index tab (Signature.bucket s)] (or [Signature.buf_bucket])
    and record [Locktab.seq] snapshots before walking the chain; {!remove}
    takes the stripe internally, and nothing else takes it. *)

val of_namespace_opt : namespace -> t option
(** The namespace's table if one has been created; never creates. *)

val of_namespace_exn : namespace -> t
(** Like {!of_namespace_opt} but raises [Not_found] instead of boxing an
    option — the allocation-free variant the lockless fastpath uses (it
    must neither allocate nor create, since creation is a mutation).  *)

val insert : t -> namespace -> dentry -> Signature.t -> unit
(** Publish [dentry] under [signature]; removes any previous membership
    (other signature or other namespace) first and records the membership
    on the dentry.  {b The caller must hold the dcache write lock}: it
    excludes every sharded section, and lockless probes validate against
    the global write sequence the write section bumps, so the insert takes
    no stripe lock.  It doubles the table when the population passes two
    entries per bucket. *)

val find : t -> key:Signature.key -> Signature.t -> dentry option
(** Probe; compares signatures per the key's configured width.  A hit
    returns the chain cell already holding the dentry — no allocation. *)

val find_buf : t -> key:Signature.key -> Signature.buf -> dentry option
(** Like {!find}, keyed by an in-place digest buffer (fastpath probes). *)

val remove : dentry -> unit
(** Remove [dentry] from whichever DLHT holds it (no-op when none).  O(1)
    splice; must be called while the dentry's signature still matches the
    one it was inserted under (the dcache's detach ordering guarantees
    this).  If the invariant is ever broken the removal degrades to a
    whole-table identity scan — counted by {!sigless_scans} and stamped as
    [ev_dlht_sigless_scan] so the degradation is never silent. *)

val population : t -> int
(** Exact number of entries currently in the table. *)

val resizes : t -> int
(** Doublings since creation. *)

val grow_load : int
(** Entries per bucket before the table doubles: an insert that takes the
    population past [grow_load * buckets] rehashes into twice the buckets
    (up to 2^22), so a table that has stopped growing holds at most this
    many entries per bucket. *)

val sigless_scans : t -> int
(** Times {!remove} fell back to the defensive whole-table scan. *)

type occupancy = {
  occ_entries : int;  (** chained entries (= {!population} when healthy) *)
  occ_buckets : int;  (** bucket count *)
  occ_used : int;  (** buckets with at least one entry *)
  occ_longest : int;  (** longest chain *)
}

val occupancy : t -> occupancy
(** Walk every bucket and summarize load; diagnostics / bench reporting. *)

val self_check : t -> string list
(** Structural invariant check over the intrusive chains (prev/next
    consistency, membership marks, bucket placement, exact count); empty
    when healthy.  For tests and the [scale] bench's gate. *)

type scrub_report = {
  scrub_scanned : int;  (** chained entries examined *)
  scrub_quarantined : int;  (** entries spliced out *)
  scrub_problems : string list;  (** one line per quarantined entry *)
}

val scrub : t -> scrub_report
(** Integrity pass that {e repairs}: every chained entry whose links,
    membership mark or signature disagree with the table is quarantined —
    removed from its bucket and stripped of DLHT membership — instead of
    being left to answer probes for the wrong path.  The dentry itself
    stays in the dcache; a later slowpath walk republishes it if healthy.
    Call under the dcache write lock. *)
