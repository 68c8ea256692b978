(** The directory cache: dentry allocation, the primary hash table keyed by
    (parent, name), the eviction clock, negative-dentry management, and the
    coherence (invalidation) entry points used by the optimized fastpath.

    Faithful to the Linux dcache structure (§2.2): every dentry is reachable
    through (a) the primary hash table, (b) its parent's child list, and
    (c) the reclaim list; the invariant that a cached dentry's ancestors are
    all cached is maintained by only evicting childless dentries bottom-up.

    Eviction is CLOCK over the reclaim list.  Every dentry carries a
    referenced mark: it starts set, and a hit ({!find}, or the fastpath's
    warm hit) sets it again when it is clear.  The hand takes the list's
    back: an entry in use or with cached children rotates to the front
    untouched, a marked entry loses its mark and rotates, and an unmarked
    one is evicted.  So a dentry hit since the hand last passed outlives an
    unmarked sibling.

    A warm hit stores nothing another domain's hit reads, except the mark
    when it was clear (once per pass of the hand) and the counter bump,
    which lands in the calling domain's own row.  The PCC's stale-entry
    drop also writes, but only on a version mismatch, i.e. after a
    mutation.

    Locking: callers bracket read-mostly work (walks, fastpath probes) with
    {!with_read} and anything that can mutate the cache with {!with_write},
    mirroring RCU-walk vs ref-walk in Linux. *)

open Types

(** Hook points installed by the optimized-dcache layer (the analog of the
    paper's ~1000 LoC of hooks in dcache.c/namei.c, Table 4). *)
type hooks = {
  mutable on_shootdown : dentry -> unit;
      (** dentry is leaving the cache or its canonical path changed: remove
          any direct-lookup state (DLHT entry, signature). *)
}

type t

val create : Config.t -> t
val config : t -> Config.t
val hooks : t -> hooks
val counters : t -> Dcache_util.Stats.Counter.t

val timers : t -> Dcache_util.Timers.t
(** This kernel's timer table (Figs. 1 and 3, the outcome histograms). *)

val lock : t -> Dcache_util.Rwlock.t
val rename_lock : t -> Dcache_util.Seqcount.t

val stripes : t -> Dcache_util.Locktab.t option
(** The sharded mutation path's lock table ([dcache_stripes > 0] and
    fastpath on), keyed by parent-directory identity: stripe
    [Locktab.index tab parent.d_id] serializes every mutation of that
    directory's children — their state/name/seq transitions, the parent's
    child list, DIR_COMPLETE flag and dir generation.  Lockless readers
    record the stripe seqcounts their probe depends on and revalidate them
    at commit time.  Sharded sections hold the {!lock} read side, so
    {!with_write} still excludes them wholesale. *)

val sharded : t -> bool
(** [stripes t <> None]. *)

val write_seq : t -> Dcache_util.Seqcount.t
(** Dcache-wide write sequence: bumped around every {!with_write} section
    (all mutation — dcache structure, DLHT splices and rehashes —
    runs under the write lock).  The lockless fastpath snapshots it before
    an optimistic probe and revalidates before committing, retrying under
    the read lock on mismatch (RCU-walk → ref-walk, §3.2). *)

val with_read : t -> (unit -> 'a) -> 'a
val with_write : t -> (unit -> 'a) -> 'a

val invalidation_counter : t -> int
(** Global shootdown sequence (§3.2): read before and after a slowpath walk;
    direct-lookup state may be populated only if unchanged. *)

val dentry_count : t -> int

(** {1 Superblocks and roots} *)

val make_superblock : t -> Dcache_fs.Fs_intf.t -> (superblock, Dcache_types.Errno.t) result
(** Wrap a low-level fs; reads its root inode and creates the root dentry,
    numbered from this dcache's dentry ids. *)

val sb_root : superblock -> dentry

val iget : superblock -> Dcache_types.Attr.t -> Inode.t
(** Inode-cache lookup/insert, so hard links share one in-memory inode. *)

val iforget : superblock -> int -> unit
(** Drop an inode whose last link is gone; inode numbers may be recycled by
    the low-level fs, so stale cache entries must not survive. *)

(** {1 Lookup and fill} *)

val find : t -> dentry -> string -> pos:int -> len:int -> dentry
(** The hashed child of [parent] named [path\[pos, pos+len)], read in
    place, or [Not_found]; a hit sets its referenced mark (when clear) and
    counts "dcache_hit".
    The per-component step of every walk; allocates nothing. *)

val lookup : t -> dentry -> string -> dentry option
(** {!find} of a whole name. *)

val contains_child : t -> dentry -> string -> pos:int -> len:int -> bool
(** Does [parent] have a hashed child named [path\[pos, pos+len)]?  The
    same probe as {!find} without the referenced mark or the hit count, for the
    §3.5 prefix fast-fail: no allocation, safe on the lockless tier. *)

val fill : t -> dentry -> string -> (dentry, Dcache_types.Errno.t) result
(** Cache miss: ask the low-level fs.  Returns the (hashed) child dentry —
    possibly a fresh negative dentry — or [Error ENOENT] when the fs reports
    absence but this fs opts out of negative caching, or another errno on
    fs failure.  Caller must hold the write side. *)

val promote : dentry -> (Inode.t, Dcache_types.Errno.t) result
(** Materialize the inode of a [Partial] dentry (from readdir caching, §5.1)
    with a single getattr; no directory scan. *)

val add_child :
  t -> dentry -> string -> dentry_state -> (dentry, Dcache_types.Errno.t) result
(** Insert a child dentry with the given state; [Error EEXIST] if the name is
    already cached.  Used for instantiating created files, readdir-derived
    [Partial] children, and deep negative dentries. *)

val dget : dentry -> unit
val dput : dentry -> unit

(** {1 Mutation-side maintenance} *)

val unhash : ?reclaim:bool -> t -> dentry -> unit
(** Remove from the hash table and parent's child list (e.g. an unlinked but
    still-open file).  Recursively drops cached children.  [reclaim]
    (default false) marks removals that are {e not} tracking a coherent fs
    mutation — e.g. forced eviction by a network callback — which must also
    break the parent's DIR_COMPLETE invariant (§5.1). *)

val note_unlinked : t -> dentry -> unit
(** Baseline-Linux behaviour after unlink: unused dentries become negative,
    in-use dentries are unhashed.  With aggressive negative caching the name
    always ends up as a cached negative (§5.2).  Under a DIR_COMPLETE parent
    the name is always dropped instead: the complete listing answers its
    absence (§5.1). *)

val d_move : t -> dentry -> new_parent:dentry -> new_name:string -> unit
(** Re-key a dentry after rename; the displaced target (if cached) is
    unhashed by the caller. *)

val set_complete : t -> dentry -> unit
(** Mark a directory's cached children as the complete listing (§5.1);
    no-op unless directory completeness is enabled.  Drops the directory's
    negative children first: a complete directory is its own negative
    cache.  Caller holds the directory's own-id stripe or the write lock;
    dropping a negative that has cached children of its own (a deep-negative
    chain, whose deeper links sit on other stripes' lists) needs the write
    lock. *)

val clear_complete : dentry -> unit
val is_complete : t -> dentry -> bool

val bump_dir_gen : dentry -> unit
(** Note a directory-content mutation; invalidates in-flight readdir
    completion sequences (§5.1). *)

(** {1 Per-stripe negative-dentry lists (§6.3)} *)

val neg_track : t -> dentry -> unit
(** Track a dentry that just turned negative in place (outside the dcache's
    own transitions, e.g. alias retargeting): stamps the current negative
    generation, splices it onto its stripe's list, and enforces
    [neg_list_cap].  Caller holds the parent's stripe or the write lock. *)

val neg_forget : t -> dentry -> unit
(** Drop a dentry from its stripe's negative list — call when promoting a
    cached negative to positive in place (a create over a negative).  The
    caller holds the parent's stripe or the write lock, exactly as for the
    state transition itself.  No-op for untracked dentries. *)

val negative_current : dentry -> bool
(** Is this dentry's verdict still current against its superblock's
    negative generation?  Always true for positive/partial dentries; for a
    negative, one int compare (allocation-free, safe on the lockless tier).
    A stale negative must be treated as a miss. *)

val invalidate_negatives : t -> superblock -> unit
(** Bump the superblock's negative generation (per-mount invalidation,
    DragonFly-style): every cached negative on it lazily becomes a miss at
    its next use, without walking the cache. *)

val neg_list_cap : t -> int
(** The configured per-stripe bound ([Config.neg_list_cap]). *)

val neg_occupancy : t -> int array
(** Current length of each stripe's negative list (one slot when
    unsharded).  Diagnostics (procfs/bench); allocates. *)

val prune_children : t -> dentry -> unit
(** Drop all cached children (recursively) but keep the dentry itself —
    e.g. deep negative children after a non-directory is created over a
    negative dentry (§5.2). *)

val bump_seq : t -> dentry -> unit
(** Advance a dentry's version counter (from this dcache's monotonic
    source), invalidating every PCC entry referring to it. *)

val invalidate_permissions : t -> dentry -> int
(** Before chmod/chown of a directory: bump the version counter of every
    cached descendant so stale PCC entries die (§3.2).  Returns the number
    of dentries visited.  No-op (returning 0) when the fastpath is off. *)

val invalidate_structure : t -> dentry -> int
(** Before rename/mount changes: additionally evict direct-lookup state and
    cached signatures of the dentry and all descendants. *)

val purge : t -> unit
(** Evict every unpinned dentry regardless of recency (the cold-cache
    setup, Table 2). *)

val reclaim_overflow : t -> unit
(** Deferred capacity enforcement for the sharded mutation path: sharded
    sections cannot evict (the clock walk crosses stripes), so callers
    invoke this {e after} dropping every lock; it takes {!with_write} only
    when the cache actually overflowed. *)

val iter_children : dentry -> (dentry -> unit) -> unit
(** Snapshot iteration over cached children. *)

val bucket_occupancy : t -> int array
(** Histogram of primary-table bucket chain lengths: slot [i] counts
    buckets with [i] entries; the last slot aggregates longer chains
    (paper §6.5). *)

val self_check : t -> string list
(** Verify the cache's structural invariants (reclaim-list/hash-table/child
    -list agreement, bottom-up caching, fast-dentry consistency, no negative
    child under a DIR_COMPLETE directory); returns
    human-readable violations, [[]] when healthy.  O(cache size); a test
    oracle, not a production call. *)

type scrub_report = {
  scrub_scanned : int;  (** dentries examined *)
  scrub_quarantined : int;  (** inconsistent dentries force-detached *)
  scrub_problems : string list;  (** one line per quarantined dentry *)
}

val scrub : t -> scrub_report
(** Repairing integrity pass: dentries whose hash-table / child-list /
    reclaim-list state is inconsistent are quarantined (force-detached,
    children included, firing the shootdown hook so stale direct-lookup
    state dies too) instead of left to answer lookups.  The next walk
    re-resolves them from the file system.  Caller holds the write side. *)
