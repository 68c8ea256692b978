(** Prefix Check Cache (paper §3.1, Fig. 5).

    Memoizes the result of {e passed} prefix (search-permission) checks per
    credential: an entry is a (dentry identity, dentry version) pair meaning
    "a process with these credentials completed a permission-checked walk to
    this dentry when its version counter was [seq]".  A probe hits only if
    the dentry's current version still matches, so any chmod/chown/rename of
    an ancestor (which bumps descendants' versions, §3.2) invalidates
    entries implicitly, without touching each PCC.

    Misses are {e not} cached: a miss means either "denied" or "not checked
    recently" and simply forces the slowpath (§3.1).

    The cache is a 4-way set-associative array of packed (id, seq) words
    with per-set rotating replacement — an LRU approximation.  Packed
    single-word entries make unsynchronized readers safe: a torn update can
    only produce a mismatch, never a false hit. *)

open Dcache_vfs.Types

type t

val create : counters:Dcache_util.Stats.Counter.t -> entries:int -> unit -> t
(** Stale entries it drops count in [counters].  [entries] is the
    ceiling, rounded up to a power of two, minimum 16.
    The table starts at [min entries 4096] — the paper's 64 KB PCC — and
    doubles up to the ceiling whenever capacity replacement evicts more
    than one live entry per 32 lookups, counted over windows of one
    table's worth of lookups (the paper leaves resizing as future work,
    §6.3).  Lookups are [counters]' fastpath hits plus fallbacks, read
    only when an insert displaces an entry; a window restarts when the
    counters are reset.  A ceiling at or below 4096 is the paper's static
    table. *)

val capacity : t -> int
val grows : t -> int
(** Number of dynamic growth steps performed. *)

val check : t -> dentry -> bool
(** True iff a valid (current-version) entry for [dentry] is present.  A
    hit writes nothing; an entry found at a stale version is dropped. *)

val probe : t -> dentry -> bool
(** Read-only variant of {!check} for prefix validation (§3.5): same
    answer, but no stale-entry drop, so it is safe on the lockless tier.
    Allocation-free. *)

val insert : t -> dentry -> seq:int -> unit
(** Record a passed prefix check at version [seq]: the dentry's version
    read {e before} any of the check's reads, so that a change to its
    ancestors that bumps the version after them leaves the entry stale.
    Needs no lock (the fastpath's lockless refill calls it): racing
    another writer it may lose its entry, never make a false hit.
    Allocation-free unless it makes a growth due, which a PCC-local mutex
    serializes against every other growth. *)

val of_cred :
  Dcache_cred.Cred.t -> namespace -> counters:Dcache_util.Stats.Counter.t -> entries:int -> t
(** The PCC shared by all processes holding this credential {e in this
    mount namespace} (§4.1, §4.3); created on first use and stored in the
    credential's security slot. *)

val of_cred_exn : Dcache_cred.Cred.t -> namespace -> t
(** Like {!of_cred} but never creates and never allocates; raises
    [Not_found] when this credential has no PCC for the namespace yet.
    The lockless fastpath uses it because creation is a mutation that
    belongs under the lock. *)

