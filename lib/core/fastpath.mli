(** The optimized lookup fastpath (paper §3).

    A lookup computes the signature of the full canonical path — resuming
    the hash from the starting directory's stored state for relative paths —
    probes the per-namespace {!Dlht} with it, and validates the result
    against the per-credential {!Pcc}.  A hit resolves any path in a
    constant number of hash-table operations.  A DLHT hit without a valid
    PCC entry refills it, with no lock and no walk, by climbing the
    dentry's cached parents to one the PCC vouches for, checking search
    permission on each ("fastpath_pcc_refill").  Any other miss (no DLHT
    entry, a climb that cannot finish, an unresolvable trailing symlink,
    ...) falls back to the ordinary component-at-a-time slowpath, whose
    successful prefix checks repopulate the DLHT and PCC for next time.

    Dot-dot components follow the configured semantics (§4.2): Linux mode
    issues an extra fastpath sub-lookup per [..] to preserve permission
    semantics; Plan 9 lexical mode cancels the preceding component while
    hashing, in place. *)

open Dcache_vfs.Types
module Walk = Dcache_vfs.Walk

type t

val create : Dcache_vfs.Dcache.t -> t
(** Builds the fastpath state over a directory cache and installs the
    shootdown hook that keeps the DLHT coherent with evictions and
    invalidations.  The signature key is derived from a fixed seed (a
    boot-time random value in a real kernel), so every kernel with the same
    [sig_bits] computes the same signatures. *)

val key : t -> Dcache_sig.Signature.key

val set_simulate_pcc_miss : t -> bool -> unit
(** Force every probe to miss in the PCC (and skip PCC repopulation and
    refill): the paper's "fastpath miss + slowpath" worst case (Fig. 6). *)

val lookup :
  t -> Walk.ctx -> ?start:path_ref -> ?flags:Walk.flags -> ?note_path:bool -> string -> Walk.result_
(** Resolve a path: fastpath probe, then slowpath-with-population fallback.
    [start] overrides the walk origin for relative paths (the *at() family);
    default is the context's cwd.  With [~note_path:true] (default
    [false]) the lookup also counts Table 1's path statistics
    ([path_lookup], [path_bytes], [path_comps]) once it returns, taking
    the component count from its own probe's scan.  The warm probe is {e lockless}: it runs
    without the dcache lock, validated against the dcache-wide write
    sequence and the stripes it read, and is retried a bounded number of
    times when a concurrent write section invalidated it; a probe that
    keeps racing re-probes once under the write lock (RCU-walk → ref-walk,
    §3.2).  Every miss ends in one write-locked body: it re-validates the
    probe's resume candidate, resolves only the uncached suffix from it —
    one probe-or-fill when the suffix is a single name — or walks the
    whole path, then repopulates the DLHT and PCC.  With the fastpath
    disabled in the configuration, this is the baseline kernel's
    two-phase (Rcu then Ref) slowpath. *)

val lookup_with :
  t ->
  Walk.ctx ->
  ?start:path_ref ->
  ?flags:Walk.flags ->
  ?note_path:bool ->
  string ->
  within:(path_ref -> ('a, Dcache_types.Errno.t) result) ->
  ('a, Dcache_types.Errno.t) result
(** Like {!lookup}, but runs [within] on the result while the protecting
    lock is still held, so the caller can pin the dentry or evaluate
    permissions without racing evictions.  Thin wrapper over
    {!lookup_into} that boxes the location into a [path_ref]. *)

val lookup_into :
  t ->
  Walk.ctx ->
  ?start:path_ref ->
  ?flags:Walk.flags ->
  ?note_path:bool ->
  string ->
  within:(mount -> dentry -> ('a, Dcache_types.Errno.t) result) ->
  ('a, Dcache_types.Errno.t) result
(** The allocation-free lookup: like {!lookup_with} but hands the resolved
    location to [within] as separate arguments instead of building a
    [path_ref].  With the fastpath on, a warm DLHT hit over a plain path —
    no ".." components, or only ones a lexical ".." cancels — performs
    {e zero} minor-heap allocation and {e zero} rwlock
    acquisitions beyond what [within] itself does: the path is hashed in
    place from the raw string into per-domain scratch state, the bucket
    chain is walked intrusively, the probe is validated by one seqcount
    read, and counters and phase accounting are single stores.  [within]
    runs after validation but outside any lock on this tier, so its effects
    (pinning, permission evaluation) must tolerate being linearized just
    before any concurrent mutation — the same contract an open racing an
    unlink already has. *)

val path_components : string -> int
(** Table 1's component count of [path]: its non-empty components, ["."]
    and [".."] included.  Ask after the lookup: when this domain's last
    probe scanned [path] — the same string, by physical identity — to its
    end, the count is the one that scan took, so a warm lookup reads the
    path once.  Otherwise (the baseline, a locked walk, a probe that fell
    back mid-scan) the path is counted here. *)

val note_path : t -> string -> unit
(** Count Table 1's path statistics for a lookup of [path] made some other
    way than [~note_path:true] (a locked resolve, a stripe-scope commit),
    with {!path_components}' count. *)

val probe_batch :
  t ->
  Walk.ctx ->
  n:int ->
  path:(int -> string) ->
  flags:Walk.flags ->
  prepare:(int -> unit) ->
  within:(mount -> dentry -> ('a, Dcache_types.Errno.t) result) ->
  complete:(int -> ('a, Dcache_types.Errno.t) result -> unit) ->
  deferred:int array ->
  int
(** Vectored probe (§3.9): resolve ops [0..n-1] with amortized
    validation, every op walking with [flags].  The accessor ([path i])
    and the sinks ([prepare i] before op [i] touches shared scratch,
    [complete i r] with its result) must be allocated once per ring by
    the caller — the warm all-hit batch performs zero minor-heap
    allocation end to end.
    [deferred] is caller-owned scratch of length >= [n].

    Each op runs the same per-op attempt as a sequential lookup, under
    one shared seqcount window (reopened after a mid-batch bump — a
    "batch split"); each op's commit check validates the shared snapshot
    plus its own recorded stripes, which is strictly stronger than the
    sequential per-op window, so batched results always match the same
    ops issued sequentially at the same point.  Misses defer to phase 2:
    sorted by path and resolved under a single write-lock acquisition by
    the same write-locked body a sequential miss takes, so a run of
    single-name siblings walks one component each.  Ops resolve
    relative to the context's cwd.  With the fastpath off, degrades to
    per-op sequential lookups.  Returns the number of validation windows
    opened ([n] with the fastpath off): 1 when no writer interfered. *)

val populate :
  t ->
  Walk.ctx ->
  visited:path_ref list ->
  absolute:bool ->
  start:path_ref ->
  unit
(** Publish a collected slowpath chain into the DLHT and PCC.  Must be
    called with the write lock held ({!Dlht.insert}'s contract); respects
    the global invalidation counter protocol (§3.2) and the
    directory-reference gating rule for relative walks.  Callers: the
    fastpath's write-locked miss body and the global-scope namespace
    mutations. *)
