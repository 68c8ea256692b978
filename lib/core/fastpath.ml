open Dcache_types
open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Walk = Vfs.Walk
module Path = Vfs.Path
module Config = Vfs.Config
module Signature = Dcache_sig.Signature
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Rwlock = Dcache_util.Rwlock
module Seqcount = Dcache_util.Seqcount
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers
module Clock = Dcache_util.Clock

module Locktab = Dcache_util.Locktab

type t = {
  dcache : Dcache.t;
  key : Signature.key;
  mutable simulate_pcc_miss : bool;
  (* The dcache's sharded-mutation stripe table, resolved once: lockless
     probes record the stripes their dentry reads depend on (None when
     unsharded — recording is then a dead branch). *)
  dtab : Locktab.t option;
  counters : Counter.t;
  timers : Timers.t;
}

let create dcache =
  let config = Dcache.config dcache in
  let key =
    Signature.create_key ~sig_bits:config.Config.sig_bits ~seed:config.Config.hash_seed ()
  in
  let t =
    {
      dcache;
      key;
      simulate_pcc_miss = false;
      dtab = Dcache.stripes dcache;
      counters = Dcache.counters dcache;
      timers = Dcache.timers dcache;
    }
  in
  (Dcache.hooks dcache).on_shootdown <- Dlht.remove;
  t

let key t = t.key
let set_simulate_pcc_miss t v = t.simulate_pcc_miss <- v
let config t = Dcache.config t.dcache

(* --- canonical hash states (§3.1) ---

   A dentry's hash state is the multilinear state after feeding its full
   canonical path *in the mount tree of the namespace it was reached in*:
   a mounted root inherits the state of its mountpoint.  States are computed
   lazily, under the write lock, and cached on the dentry; lockless probes
   only consume cached states (plain single-field writes: racing readers
   see the old value or the new one). *)

let rec ensure_hstate t (r : path_ref) =
  let d = r.dentry in
  match d.d_hstate with
  | Some state -> state
  | None ->
    let state =
      if d == r.mnt.mnt_root then begin
        match r.mnt.mnt_mountpoint with
        | None -> Signature.empty_state
        | Some (pmnt, mountpoint) -> ensure_hstate t { mnt = pmnt; dentry = mountpoint }
      end
      else begin
        match d.d_parent with
        | None -> Signature.empty_state
        | Some parent ->
          let parent_state = ensure_hstate t { r with dentry = parent } in
          Signature.feed_string t.key (Signature.feed_char t.key parent_state '/') d.d_name
      end
    in
    d.d_hstate <- Some state;
    if d.d_mnt = None then d.d_mnt <- Some r.mnt;
    state

(* --- the probe (§3.1, §4.2) --- *)

exception Fall_back

(* The optimistic (lockless) probe observed a dcache write sequence change:
   everything it read is suspect, probe again (RCU-walk → ref-walk, §3.2).
   Constant constructor — raising it allocates nothing. *)
exception Seq_retry

(* A symlink alias copies its real dentry's state when it is made or
   retargeted, but a negative real promoted in place (a create over a
   cached negative, §5.2) does not update its aliases: verdicts read the
   real dentry's state, never the alias's copy. *)
let real_of d = match d.d_alias with Some real -> real | None -> d

let pcc_valid t pcc d =
  (not t.simulate_pcc_miss) && Pcc.check pcc d

(* PCC validation for prefix candidates: [Pcc.probe] is the read-only
   variant — no hit/miss accounting, no stale-entry drop — safe on the
   lockless tier and statistics-neutral for a scan that expects misses. *)
let pcc_probe t pcc d = (not t.simulate_pcc_miss) && Pcc.probe pcc d

let may_search ctx d =
  match d.d_state with
  | Positive inode -> Walk.check_exec ctx inode
  | Partial _ | Negative _ -> false

(* --- the lease gate (§3.7) ---

   On a leased (stateful network) file system a cached verdict may be
   served locklessly only while this client holds a live lease on the
   inode that decides it: the final inode (and its containing directory)
   for a positive hit, the containing directory for a cached absence.  A
   dead or missing lease forces the write-locked fallback, whose walk
   revalidates at the server and re-earns the lease — the middle rung of
   the degradation ladder.  [lease_check] is supplied by the netfs client
   and is allocation-free (Hashtbl.find on an int + integer compares), so
   a live-lease warm hit keeps the 0-words/0-locks guarantee.  Local file
   systems carry no [lease_check] and skip all of this on one load. *)

(* A positive verdict for [final]: its own lease and (when it has a cached
   parent) the containing directory's lease must both be live — the parent
   lease is what makes the name binding trustworthy, AFS-callback style. *)
let gate_positive t final =
  match final.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> ()
  | Some live ->
    if
      (not (Walk.dentry_leased live final))
      || (match final.d_parent with
         | None -> false (* the fs root: no containing directory to lease *)
         | Some parent -> not (Walk.dentry_leased live parent))
    then begin
      Counter.bump t.counters Counters.fastpath_lease_fallback;
      raise Fall_back
    end

(* A cached absence in some directory is only as fresh as that directory's
   lease.  [true] = the verdict is blocked (caller falls back or skips the
   candidate); negatives under an unleased or non-positive parent never
   fast-fail. *)
let lease_blocks_negative t d =
  match d.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> false
  | Some live ->
    let blocked =
      match d.d_parent with None -> true | Some parent -> not (Walk.dentry_leased live parent)
    in
    if blocked then Counter.bump t.counters Counters.fastpath_lease_fallback;
    blocked

(* A DIR_COMPLETE absence verdict is decided by directory [dir] itself. *)
let lease_blocks_dir t dir =
  match dir.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> false
  | Some live ->
    let blocked = not (Walk.dentry_leased live dir) in
    if blocked then Counter.bump t.counters Counters.fastpath_lease_fallback;
    blocked

let dlht_of t ctx =
  let cfg = config t in
  (* The DLHT gets stripes exactly when the dcache did: both tables are
     mutated by the same sharded sections. *)
  let stripes = match t.dtab with Some _ -> cfg.Config.dcache_stripes | None -> 0 in
  Dlht.of_namespace ~stripes ~buckets:cfg.Config.dlht_buckets ~counters:t.counters ctx.Walk.ns

let pcc_of t ctx =
  let cfg = config t in
  Pcc.of_cred ctx.Walk.cred ctx.Walk.ns ~counters:t.counters ~entries:cfg.Config.pcc_entries

(* --- lockless-probe discipline ---

   A probe with [vsnap >= 0] runs without any lock, validated against
   the dcache write sequence it snapshotted.  Such a probe must be purely
   optimistic: it may read anything (racy single-field reads of immediates
   and pointers cannot tear in OCaml) but must not create subsystem state —
   creation is a mutation, and mutations belong under the lock.  So the
   lockless variants of the accessors below refuse to create, and cached
   hash states are consumed but never computed ([hstate_of]): a state
   derived from a concurrently-mutated ancestor chain could be garbage, and
   caching garbage would outlive the retry.  State not built yet is a miss
   ([Fall_back]), not a race: the handler's snapshot and stripe validation
   tells the two apart, and the write-locked fallback builds it. *)

let dlht_for t ctx vsnap =
  if vsnap < 0 then dlht_of t ctx
  else begin
    match Dlht.of_namespace_exn ctx.Walk.ns with
    | dlht -> dlht
    | exception Not_found -> raise Fall_back
  end

let pcc_for t ctx vsnap =
  if vsnap < 0 then pcc_of t ctx
  else begin
    match Pcc.of_cred_exn ctx.Walk.cred ctx.Walk.ns with
    | pcc -> pcc
    | exception Not_found -> raise Fall_back
  end

let hstate_of t vsnap (r : path_ref) =
  if vsnap < 0 then ensure_hstate t r
  else begin
    match r.dentry.d_hstate with Some state -> state | None -> raise Fall_back
  end

(* --- per-domain probe scratch --- *)

type scratch = {
  ms : Signature.mstate;
  sbuf : Signature.buf;
  (* Prefix-resume state (§3.5).  [snaps] records a hash-state snapshot at
     every component boundary the probe feeds — six int stores per
     component, preallocated once per domain, so the warm hit stays
     allocation-free.  On a miss the snapshots are re-finalized into
     [pbuf] ([sbuf] still holds the full-path digest) for the
     deepest-first ancestor scan.  The three mutable fields carry the
     probe's verdict to the write-locked fallback: which path the
     snapshots describe (physical identity — never read as a string), the
     global invalidation counter observed before any cached state was
     consumed, and the deepest viable ancestor slot (-1: none). *)
  snaps : Signature.snaps;
  pbuf : Signature.buf;
  mutable snap_path : string;
  mutable snap_inval : int;
  mutable resume_slot : int;
  (* Table 1's component count of [snap_path], taken from the scan once
     it reached the end of the path; -1 until then. *)
  mutable comps : int;
  (* Errno carried by a [Neg_fail] verdict — stashed here so the exception
     itself can stay constant (raising allocates nothing: the fast-fail may
     fire on every probe of a repeatedly missed name). *)
  mutable neg_errno : Errno.t;
  (* Stripe validation (sharded mode).  A lockless probe records every
     stripe seqcount its dentry-field and chain reads depend on — the DLHT
     stripe of each walked bucket, the dcache stripe of each trusted
     dentry's parent, the own-id stripe of each directory whose
     completeness answers for an absent child — and the commit check
     revalidates them all.  Preallocated; the dummy seqcount is never read
     (slots are written before [stripe_n] admits them). *)
  mutable stripe_n : int;
  stripe_seqs : Seqcount.t array;
  stripe_snaps : int array;
  (* This domain's trace span state: stamps here skip the DLS read. *)
  spans : Trace.spans;
}

(* Per-domain because fig8-style benchmarks probe concurrently from several
   domains. *)
let stripe_cap = 4096

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ms = Signature.mstate ();
        sbuf = Signature.buf ();
        snaps = Signature.snaps ~slots:((Path.max_path / 2) + 2);
        pbuf = Signature.buf ();
        snap_path = "";
        snap_inval = -1;
        resume_slot = -1;
        comps = -1;
        neg_errno = Errno.ENOENT;
        stripe_n = 0;
        stripe_seqs = Array.make stripe_cap (Seqcount.create ());
        stripe_snaps = Array.make stripe_cap 0;
        spans = Trace.domain_spans ();
      })

(* --- stripe recording (sharded mode) ---

   Unsharded, every helper below is a dead [None] branch and the write
   sequence alone validates the probe.  Sharded, the probe
   records each stripe seqcount before performing the reads that stripe
   guards; [commit_check] then proves the whole read set raced no sharded
   writer, exactly as the dcache-wide write sequence proves it raced no
   exclusive one. *)

(* An odd snapshot means a mutation is in flight on that stripe right now:
   fail fast instead of walking suspect chains.  Overflow (an absurdly deep
   path) degrades to a retry that ends in the authoritative fallback. *)
let[@inline] record_seq sc q =
  let n = sc.stripe_n in
  if n >= stripe_cap then raise_notrace Seq_retry;
  let snap = Seqcount.read_begin q in
  if snap land 1 <> 0 then raise_notrace Seq_retry;
  sc.stripe_seqs.(n) <- q;
  sc.stripe_snaps.(n) <- snap;
  sc.stripe_n <- n + 1

(* The stripe guarding [d]'s own fields (state, seq, alias, target sig):
   its parent directory's stripe — every sharded mutation of a child runs
   under [index tab parent.d_id].  The racy [d_parent] read is safe: a
   racing rename holds {e both} parents' stripes, so whichever parent the
   reader observes, that stripe's seq is bumped by the move.  Roots have
   no parent and are never mutated by sharded sections. *)
let[@inline] record_dentry t sc (d : dentry) =
  match t.dtab with
  | None -> ()
  | Some tab -> (
    match d.d_parent with
    | None -> ()
    | Some p -> record_seq sc (Locktab.seq tab (Locktab.index tab p.d_id)))

(* The stripe guarding directory [d]'s children — its own id's stripe:
   DIR_COMPLETE and child-presence answers are stable only against it. *)
let[@inline] record_dir t sc (d : dentry) =
  match t.dtab with
  | None -> ()
  | Some tab -> record_seq sc (Locktab.seq tab (Locktab.index tab d.d_id))

(* The DLHT stripe guarding the bucket about to be walked. *)
let[@inline] record_chain sc dlht bucket =
  match Dlht.locktab dlht with
  | None -> ()
  | Some tab -> record_seq sc (Locktab.seq tab (Locktab.index tab bucket))

(* Top-level recursion, not a closure over [sc] — the commit check runs on
   the zero-allocation warm path. *)
let rec stripes_ok_from seqs snaps n i =
  i >= n
  || (Seqcount.read_validate seqs.(i) snaps.(i) && stripes_ok_from seqs snaps n (i + 1))

let[@inline] stripes_ok sc = stripes_ok_from sc.stripe_seqs sc.stripe_snaps sc.stripe_n 0

let[@inline] commit_check t sc vsnap =
  if
    vsnap >= 0
    && not (Seqcount.read_validate (Dcache.write_seq t.dcache) vsnap && stripes_ok sc)
  then raise Seq_retry

(* --- lockless PCC refill (§3.1, §3.4) ---

   A DLHT hit whose dentry has no valid PCC entry — evicted, or never
   inserted for this credential — need not walk from the root: the DLHT
   already found the dentry, and its cached parent chain holds what a walk
   would check.  Climb [d_parent] from the dentry.  Every ancestor must be
   a positive, non-alias directory of the dentry's own mount that this
   credential may search, up to the first one the PCC vouches for.  That
   is the walk's own verdict: the vouched ancestor was reached with
   checks, and each directory below it is searchable.  So the dentry is
   recorded as checked, with no lock and no walk.

   Two rules keep the entry honest.  The insert follows [commit_check], so
   the climb's reads count only once the probe's window proves no writer
   raced them.  And the entry carries the dentry's version read {e before}
   the climb, not at insert time: a chmod bumps its descendants' versions
   before the new mode lands (§3.2), so a chmod that starts after the
   commit leaves the entry stale instead of vouching for a path it is
   about to close.

   Anything else falls back as before: an fs or mount root, an alias (its
   state mirrors another dentry's), a Partial or negative ancestor, an
   ancestor reached through another mount (a bind alias's prefix
   differs), a leased file system (its attributes answer to the server;
   the DLHT holds no dentry of a revalidating one), and spent fuel.  Top-level recursion, for the zero-allocation warm
   path. *)
let refill_fuel = 64

let rec climb t ctx pcc sc mnt a fuel =
  record_dentry t sc a;
  if
    fuel = 0
    || (match a.d_alias with Some _ -> true | None -> false)
    || (match a.d_mnt with Some m -> not (m == mnt) | None -> true)
    || not (dentry_is_dir a && may_search ctx a)
  then raise Fall_back;
  if not (pcc_probe t pcc a) then begin
    if a == mnt.mnt_root then raise Fall_back;
    match a.d_parent with
    | Some parent -> climb t ctx pcc sc mnt parent (fuel - 1)
    | None -> raise Fall_back
  end

let refill t ctx pcc sc ~vsnap d =
  if
    t.simulate_pcc_miss
    || match d.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with Some _ -> true | None -> false
  then raise Fall_back;
  let seq = d.d_seq in
  match (d.d_mnt, d.d_parent) with
  | Some mnt, Some parent when not (d == mnt.mnt_root) ->
    climb t ctx pcc sc mnt parent refill_fuel;
    commit_check t sc vsnap;
    Pcc.insert pcc d ~seq;
    Counter.bump t.counters Counters.fastpath_pcc_refill
  | _ -> raise Fall_back

(* Validate a DLHT hit against the PCC, refilling a missing entry: the
   literal dentry covers the literal prefix's permissions, the real dentry
   the translated one. *)
let admit t ctx pcc sc ~vsnap d =
  if not (pcc_valid t pcc d) then refill t ctx pcc sc ~vsnap d

let validate t ctx pcc sc ~vsnap literal real =
  admit t ctx pcc sc ~vsnap literal;
  if not (real == literal) then admit t ctx pcc sc ~vsnap real

(* A trailing symlink is followed by one DLHT probe per hop on its cached
   target-path signature (§4.2): replacing any intermediate link refreshes
   that link's own dentry, so the chain can never serve a stale endpoint.
   Symlink targets resolve against the process root, so the shortcut only
   applies to non-chrooted processes ([at_ns_root]).

   Top-level (not a closure inside the probe): the warm path calls this once
   per lookup and must not allocate an environment for it. *)
let rec chase t ctx dlht pcc sc ~vsnap ~follow_last ~at_ns_root d limit =
  if limit = 0 then raise Fall_back
  else begin
    record_dentry t sc d;
    let is_symlink =
      match (real_of d).d_state with
      | Positive inode -> File_kind.equal (Vfs.Inode.kind inode) File_kind.Symlink
      | Partial { p_kind; _ } -> File_kind.equal p_kind File_kind.Symlink
      | Negative _ -> false
    in
    if is_symlink && follow_last then begin
      match d.d_alias with
      | Some real when not (real == d) ->
        record_dentry t sc real;
        admit t ctx pcc sc ~vsnap real;
        chase t ctx dlht pcc sc ~vsnap ~follow_last ~at_ns_root real (limit - 1)
      | Some _ | None -> (
        if not at_ns_root then raise Fall_back;
        match d.d_target_sig with
        | None -> raise Fall_back
        | Some target_sig -> (
          record_chain sc dlht (Signature.bucket target_sig);
          match Dlht.find dlht ~key:t.key target_sig with
          | None -> raise Fall_back
          | Some next ->
            let real = real_of next in
            record_dentry t sc next;
            if not (real == next) then record_dentry t sc real;
            validate t ctx pcc sc ~vsnap next real;
            chase t ctx dlht pcc sc ~vsnap ~follow_last ~at_ns_root next (limit - 1)))
    end
    else begin
      match d.d_alias with
      | Some real ->
        record_dentry t sc real;
        admit t ctx pcc sc ~vsnap real;
        real
      | None -> d
    end
  end

let at_ns_root ctx =
  ctx.Walk.root.mnt.mnt_mountpoint = None
  && ctx.Walk.root.dentry == ctx.Walk.root.mnt.mnt_root

(* --- in-place probe (allocation-free warm path) ---

   The probe scans the raw path string component by component, feeding
   bytes straight into a preallocated per-domain hash state — no
   component list, no intermediate state records, no closures.  A warm
   DLHT hit on a plain path performs zero minor-heap allocation (asserted
   by test and measured by the [alloc] benchmark). *)

(* A component longer than [Path.max_name], found by the scan itself:
   ENAMETOOLONG, whatever the rest of the path would have answered — the
   walk's [Path.check] checks every component before it looks any up. *)
exception Name_too_long

(* Dot-dot sub-probe against the running in-place state (Linux semantics,
   and a leading ".." under lexical semantics).  Allocates a [path_ref] for
   the prefix hop: such paths are not part of the zero-allocation guarantee
   (they were never constant-time either). *)
let probe_prefix_buf t ctx dlht pcc sc ~vsnap =
  Signature.finalize_into t.key sc.ms sc.sbuf;
  record_chain sc dlht (Signature.buf_bucket sc.sbuf);
  match Dlht.find_buf dlht ~key:t.key sc.sbuf with
  | None -> raise Fall_back
  | Some literal ->
    let real = real_of literal in
    record_dentry t sc literal;
    if not (real == literal) then record_dentry t sc real;
    validate t ctx pcc sc ~vsnap literal real;
    if not (dentry_is_dir real) then raise Fall_back;
    (match real.d_mnt with Some mnt -> { mnt; dentry = real } | None -> raise Fall_back)

(* --- prefix-resumed miss handling (§3.5) ---

   The in-place scanner records a hash-state snapshot at every component
   boundary, so when the full-path probe misses we can ask, deepest-first,
   whether any proper ancestor prefix is already cached — and either answer
   the lookup from the prefix alone (negative fast-fail) or mark the
   ancestor as the point to resume the slowpath walk from, instead of
   re-walking from the root. *)

(* Negative fast-fail verdict.  Constant constructor — the errno travels in
   [sc.neg_errno] — so raising allocates nothing: a repeatedly probed absent
   name takes this path on every lookup (no negative dentry is populated by
   a fast-fail) and must stay at zero words per op like any other warm
   verdict. *)
exception Neg_fail

(* First real component of [path] at or after [pos], skipping ["."], as a
   {!Path} span — the fast-fail scan addresses the name in place.  [-1] at
   end of string or on a [".."]: those the walk must handle itself. *)
let rec next_component_span path pos =
  let sp = Path.next ~lexical:false path pos in
  if sp < 0 || Path.is_dotdot path sp then -1
  else if Path.is_dot path sp then next_component_span path (Path.span_stop sp)
  else sp

(* Whether a [".."] component follows [pos].  Under lexical semantics it
   may cancel the component a DIR_COMPLETE verdict would judge. *)
let rec dotdot_after path pos =
  let sp = Path.next ~lexical:false path pos in
  sp >= 0 && (Path.is_dotdot path sp || dotdot_after path (Path.span_stop sp))

(* Deepest-first scan over the recorded boundary snapshots, run at the
   probe's final-miss site (lockless or write-locked).  The first cached
   ancestor found decides:

   - a cached negative: the whole path fails with its errno — return it
     without the write lock or a walk, exactly as a from-root walk would
     fail at that component (fast-fail is only trusted after the same
     seqcount validation as any other lockless verdict);
   - a DIR_COMPLETE positive directory that this cred may search, whose
     next suffix component is not in the dcache: definitive ENOENT (§5.1),
     same no-lock fast-fail.  The PCC entry only proves the directory is
     reachable; a walk checks search permission on the directory itself
     before looking a name up in it, and without it answers EACCES.  Under
     lexical semantics a later ".." may cancel that next component, so a
     slot whose suffix holds one never fast-fails this way;
   - any other PCC-valid positive directory: the resume candidate — its
     slot is left in [sc.resume_slot] for [fallback] to re-validate under
     the write lock, and the probe falls back.

   Candidates that fail PCC validation, are not directories, or carry no
   mount are skipped in favor of shallower ancestors: a shallower resume
   is still correct (the walk rediscovers whatever made the deeper prefix
   unusable — including EACCES on a revoked interior directory, which is
   re-checked per component by the resumed walk itself). *)
(* Top-level recursion (not an inner [let rec] — a closure over seven
   captured variables costs ~10 minor words per miss without flambda; the
   fast-fail verdict must stay at zero). *)
let rec prefix_scan t ctx dlht pcc sc path ~vsnap k =
  if k >= 0 then begin
    let sn = sc.snaps in
    Signature.finalize_snap_into t.key sn k sc.pbuf;
    record_chain sc dlht (Signature.buf_bucket sc.pbuf);
    match Dlht.find_buf dlht ~key:t.key sc.pbuf with
    | None -> prefix_scan t ctx dlht pcc sc path ~vsnap (k - 1)
    | Some literal ->
      let real = real_of literal in
      record_dentry t sc literal;
      if not (real == literal) then record_dentry t sc real;
      if not (pcc_probe t pcc literal && ((real == literal) || pcc_probe t pcc real))
      then prefix_scan t ctx dlht pcc sc path ~vsnap (k - 1)
      else begin
        match real.d_state with
        | Negative _ when lease_blocks_negative t real ->
          (* The deciding directory's lease is dead: this cached absence
             cannot fast-fail the path.  A shallower (leased) ancestor may
             still resume or decide it. *)
          prefix_scan t ctx dlht pcc sc path ~vsnap (k - 1)
        | Negative _ when not (Dcache.negative_current real) ->
          (* A per-mount negative flush outdated this verdict (int compare,
             allocation-free); skip it like any other unusable candidate. *)
          prefix_scan t ctx dlht pcc sc path ~vsnap (k - 1)
        | Negative errno ->
          commit_check t sc vsnap;
          Counter.bump t.counters Counters.fastpath_prefix_negfail;
          Trace.stamp_on sc.spans Trace.ev_prefix_negfail (k + 1);
          sc.neg_errno <- errno;
          raise_notrace Neg_fail
        | Positive _ | Partial _ ->
          if dentry_is_dir real && (match real.d_mnt with Some _ -> true | None -> false)
          then begin
            (* A DIR_COMPLETE absence verdict needs the directory's own
               lease live (§3.7); a dead lease only forfeits the fast-fail
               — the directory still serves as a resume candidate: the
               resumed walk does not revalidate the directory it starts
               in, but [Walk.step] trusts its completeness only under a
               live lease and otherwise asks the server for the name. *)
            (if
               Dcache.is_complete t.dcache real
               && (not (lease_blocks_dir t real))
               && may_search ctx real
               && not
                    ((config t).Config.dotdot = Config.Dotdot_lexical
                    && dotdot_after path (Signature.snaps_cursor sn k))
             then begin
               (* Completeness and child-presence are guarded by the
                  directory's own-id stripe, not its parent's. *)
               record_dir t sc real;
               let sp = next_component_span path (Signature.snaps_cursor sn k) in
               if sp >= 0 then begin
                 let pos = Path.span_start sp and len = Path.span_len sp in
                 if not (Dcache.contains_child t.dcache real path ~pos ~len) then begin
                   commit_check t sc vsnap;
                   Counter.bump t.counters Counters.fastpath_prefix_negfail;
                   Trace.stamp_on sc.spans Trace.ev_prefix_negfail (k + 1);
                   sc.neg_errno <- Errno.ENOENT;
                   raise_notrace Neg_fail
                 end
               end
             end);
            sc.resume_slot <- k
          end
          else prefix_scan t ctx dlht pcc sc path ~vsnap (k - 1)
      end
  end

(* A miss the prefix scan answers (a fast-fail verdict) is not cold: only
   one that really falls back counts. *)
let prefix_miss t ctx dlht pcc sc path ~vsnap =
  if (config t).Config.prefix_resume then
    (* Slot [n-1] is the full path — the probe that just missed. *)
    prefix_scan t ctx dlht pcc sc path ~vsnap (Signature.snaps_count sc.snaps - 2);
  Counter.bump t.counters Counters.cold;
  raise Fall_back

(* Scan-and-hash driver for the in-place probe (§4.2).  On a ".." under
   Linux semantics: sub-probe the prefix walked so far, step up, resume
   hashing from the parent's cached state.  Under lexical semantics a ".."
   cancels the last fed component instead — its boundary snapshot is
   dropped and hashing rewinds to the one below, or to [floor] (the state
   hashing started from) when none is left; a leading ".." with nothing to
   cancel hops like Linux, as the lexical [Path.next] yields it.  Top-level
   recursion, not a loop over refs, for the usual no-flambda reason.
   Every fed component leaves a boundary snapshot in [sc.snaps] for the
   miss handler — including across ".." hops: post-resume states are still
   canonical-prefix states and their cursors still delimit the remaining
   suffix, so resuming from any recorded slot replays exactly what a
   from-scratch walk would do. *)
let rec scan_and_hash t ctx dlht pcc sc path pos vsnap floor =
  let rc =
    Signature.hash_path_into_rec t.key sc.ms sc.snaps ~max_name:Path.max_name path ~pos
  in
  if rc = Signature.scan_done then ()
  else if rc = Signature.scan_toolong then raise_notrace Name_too_long
  else if
    (config t).Config.dotdot = Config.Dotdot_lexical && Signature.snaps_count sc.snaps > 0
  then begin
    if not (Signature.snaps_pop sc.snaps sc.ms) then Signature.mstate_resume sc.ms floor;
    scan_and_hash t ctx dlht pcc sc path rc vsnap floor
  end
  else begin
    Counter.bump t.counters Counters.fastpath_dotdot_sublookup;
    let prefix = probe_prefix_buf t ctx dlht pcc sc ~vsnap in
    let up = hstate_of t vsnap (Walk.follow_dotdot ctx prefix) in
    Signature.mstate_resume sc.ms up;
    scan_and_hash t ctx dlht pcc sc path rc vsnap up
  end

(* Fig. 3 phase hooks, module-local so that a disarmed probe pays one
   branch on [timed] per hook and no call. *)
let[@inline] phase_start timed = if timed then Clock.monotonic_ns () else 0
let[@inline] phase_stop t timed id t0 = if timed then Timers.stop t.timers id t0

(* [vsnap >= 0]: optimistic mode — no lock held, [vsnap] is the write-
   sequence snapshot to validate against at every commit point (just before
   an error, a success, or [within] — which has caller side effects and
   must run at most once on state that provably raced no writer).
   [vsnap < 0]: the write lock is held, no validation needed. *)
let probe_into t ctx ~(start : path_ref) ~(flags : Walk.flags) sc path ~within ~vsnap =
  (* Prefix-resume bookkeeping: the invalidation counter must be read
     before any cached state (hash states, table entries) is consumed, so
     that an unchanged counter at resume time proves the snapshots raced no
     shootdown (§3.2, §3.5).  Reset before the first [Fall_back] can fire,
     so the handler never validates a previous probe's stripes.  Plain
     int/pointer stores — no allocation. *)
  sc.snap_path <- path;
  sc.snap_inval <- Dcache.invalidation_counter t.dcache;
  sc.resume_slot <- -1;
  sc.comps <- -1;
  sc.stripe_n <- 0;
  Signature.snaps_reset sc.snaps;
  let dlht = dlht_for t ctx vsnap in
  let pcc = pcc_for t ctx vsnap in
  let absolute = Path.is_absolute path in
  let trailing_slash = Path.has_trailing_slash path in
  (* Fig. 3 phase timers: the table is read once per probe. *)
  let timed = t.timers.Timers.lookups in
  let t0 = phase_start timed in
  let base = hstate_of t vsnap (if absolute then ctx.Walk.root else start) in
  Signature.mstate_resume sc.ms base;
  phase_stop t timed Timers.init t0;
  let t0 = phase_start timed in
  scan_and_hash t ctx dlht pcc sc path 0 vsnap base;
  sc.comps <- Signature.snaps_components sc.snaps;
  Signature.finalize_into t.key sc.ms sc.sbuf;
  phase_stop t timed Timers.scan_hash t0;
  let t0 = phase_start timed in
  record_chain sc dlht (Signature.buf_bucket sc.sbuf);
  let literal =
    match Dlht.find_buf dlht ~key:t.key sc.sbuf with
    | Some d -> d
    | None ->
      commit_check t sc vsnap;
      (* Genuine miss: scan the boundary snapshots for the longest cached
         ancestor — fast-fail from the prefix or mark the resume point —
         then fall back (§3.5).  Never returns. *)
      prefix_miss t ctx dlht pcc sc path ~vsnap
  in
  phase_stop t timed Timers.table_lookup t0;
  let t0 = phase_start timed in
  let shallow_real = real_of literal in
  record_dentry t sc literal;
  if not (shallow_real == literal) then record_dentry t sc shallow_real;
  validate t ctx pcc sc ~vsnap literal shallow_real;
  phase_stop t timed Timers.permission t0;
  let t0 = phase_start timed in
  let at_root = at_ns_root ctx in
  let result =
    match shallow_real.d_state with
    | Negative errno ->
      if lease_blocks_negative t shallow_real then raise Fall_back;
      if not (Dcache.negative_current shallow_real) then raise Fall_back;
      commit_check t sc vsnap;
      Counter.bump t.counters Counters.fastpath_negative_hit;
      Trace.stamp_on sc.spans Trace.ev_fast_neg 0;
      Errno.to_error errno
    | Positive _ | Partial _ -> (
      let final =
        chase t ctx dlht pcc sc ~vsnap ~follow_last:flags.Walk.follow_last
          ~at_ns_root:at_root literal 8
      in
      match final.d_state with
      | Negative errno ->
        if lease_blocks_negative t final then raise Fall_back;
        if not (Dcache.negative_current final) then raise Fall_back;
        commit_check t sc vsnap;
        Counter.bump t.counters Counters.fastpath_negative_hit;
        Trace.stamp_on sc.spans Trace.ev_fast_neg 0;
        Errno.to_error errno
      | Partial _ -> raise Fall_back
      | Positive _ ->
        if (flags.Walk.must_dir || trailing_slash) && not (dentry_is_dir final) then begin
          gate_positive t final;
          commit_check t sc vsnap;
          Errno.to_error Errno.ENOTDIR
        end
        else begin
          match final.d_mnt with
          | None -> raise Fall_back
          | Some mnt ->
            gate_positive t final;
            commit_check t sc vsnap;
            final.d_last_used <- Dcache.new_tick t.dcache;
            within mnt final
        end)
  in
  phase_stop t timed Timers.finalize t0;
  result

(* --- population (§3.1, §3.2) --- *)

(* Canonical signature of a symlink's target path: absolute targets resolve
   from the namespace root, relative targets from the link's own directory.
   Targets containing "." or ".." are left to the slowpath. *)
let rec plain_names target pos =
  let sp = Path.next ~lexical:false target pos in
  sp < 0
  || ((not (Path.is_dot target sp || Path.is_dotdot target sp))
     && plain_names target (Path.span_stop sp))

let rec feed_names key target pos st =
  let sp = Path.next ~lexical:false target pos in
  if sp < 0 then st
  else
    feed_names key target (Path.span_stop sp)
      (Signature.feed_string key (Signature.feed_char key st '/') (Path.name target sp))

let target_signature t (r : path_ref) d inode =
  (* Only links whose body a previous (followed) resolution already read:
     population must never trigger file system calls of its own. *)
  match Vfs.Inode.cached_symlink_target inode with
  | Some target
    when match Path.check target ~pos:0 with Ok () -> plain_names target 0 | Error _ -> false ->
    let base =
      if Path.is_absolute target then ensure_hstate t (Vfs.Mount.root r.mnt.mnt_ns)
      else begin
        match d.d_parent with
        | Some parent -> ensure_hstate t { r with dentry = parent }
        | None -> Signature.empty_state
      end
    in
    Some (Signature.finalize t.key (feed_names t.key target 0 base))
  | Some _ | None -> None

let populate t ctx ~visited ~absolute ~start =
  match visited with
  | [] -> ()
  | _ :: _ ->
    let ns = ctx.Walk.ns in
    let dlht = dlht_of t ctx in
    let pcc = pcc_of t ctx in
    (* Directory-reference rule (§3.2): results of a relative walk may rely
       on an open directory reference whose ancestors are no longer
       searchable; only cache prefix checks when the starting directory's
       own prefix check is still known-good. *)
    let allow_pcc =
      absolute || pcc_valid t pcc (real_of start.dentry)
    in
    List.iter
      (fun (r : path_ref) ->
        let d = r.dentry in
        (* Dentries of a revalidating (stateless network) file system can
           never be trusted without a server round trip, so they are not
           published for direct lookup at all (§4.3).  A {e leased}
           (stateful) file system also revalidates — but only as its
           lease-recovery path: its dentries are published, and the probe's
           lease gate decides per hit whether the lockless verdict stands
           (§3.7). *)
        if
          d.d_sb.sb_fs.Dcache_fs.Fs_intf.revalidate <> None
          && d.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check = None
        then ()
        else begin
        (* Mount aliases (§4.3): a dentry is indexed under one path at a
           time; reaching it under a different mount re-signatures it and
           bumps its version in case the alias prefixes differ. *)
        (match d.d_mnt with
        | Some m when not (m == r.mnt) ->
          Dlht.remove d;
          d.d_hstate <- None;
          d.d_sig <- None;
          d.d_mnt <- Some r.mnt;
          Dcache.bump_seq t.dcache d;
          Counter.bump t.counters Counters.mount_alias_resignature
        | Some _ | None -> ());
        let state = ensure_hstate t r in
        let signature =
          match d.d_sig with
          | Some s -> s
          | None ->
            let s = Signature.finalize t.key state in
            d.d_sig <- Some s;
            s
        in
        d.d_mnt <- Some r.mnt;
        (* The dentries an alias redirects to must carry a mount and a PCC
           entry too, or the probe could never finish on them. *)
        let publish_target target =
          if target.d_mnt = None then target.d_mnt <- Some r.mnt;
          if allow_pcc && not t.simulate_pcc_miss then
            Pcc.insert pcc target ~seq:target.d_seq
        in
        (match d.d_alias with Some real -> publish_target real | None -> ());
        (* Symlink dentries carry the signature of their target path so the
           probe can follow a trailing link (§4.2). *)
        (match (d.d_target_sig, d.d_state) with
        | None, Positive inode
          when File_kind.equal (Vfs.Inode.kind inode) File_kind.Symlink ->
          d.d_target_sig <- target_signature t r d inode
        | _ -> ());
        Dlht.insert dlht ns d signature;
        if allow_pcc && not t.simulate_pcc_miss then Pcc.insert pcc d ~seq:d.d_seq
        end)
      visited;
    Counter.add t.counters Counters.fastpath_populated (List.length visited)

(* --- the public lookup --- *)

(* Re-derive and re-validate the probe's resume candidate under the write
   lock (§3.5).  The lockless scan only *suggested* a slot; everything it
   read is re-checked here where it is authoritative: the ancestor must
   still be in the DLHT under the snapshot's signature, PCC-valid for this
   cred, a positive directory with a mount — and, before any of that is
   even consulted, the global invalidation counter must equal the value
   snapshotted before the probe consumed any cached state.  A rename or
   chmod between snapshot and resume bumps that counter (§3.2), forcing
   the from-scratch walk; a revoked search permission *above* the ancestor
   bumps the ancestor's seq, so the PCC re-check fails; a revoked
   permission on the ancestor itself (or below) is re-checked per
   component by the resumed walk.  Revocation can therefore never be
   walked past. *)
let resume_plan t ctx sc path =
  if (not (config t).Config.prefix_resume)
     || sc.resume_slot < 0
     || not (sc.snap_path == path)
  then None
  else if Dcache.invalidation_counter t.dcache <> sc.snap_inval then begin
    Counter.bump t.counters Counters.fastpath_prefix_stale;
    None
  end
  else begin
    let k = sc.resume_slot in
    Signature.finalize_snap_into t.key sc.snaps k sc.pbuf;
    let dlht = dlht_of t ctx in
    let pcc = pcc_of t ctx in
    match Dlht.find_buf dlht ~key:t.key sc.pbuf with
    | None ->
      Counter.bump t.counters Counters.fastpath_prefix_stale;
      None
    | Some literal -> (
      let real = real_of literal in
      if
        not
          (pcc_valid t pcc literal
          && ((real == literal) || pcc_valid t pcc real)
          && dentry_is_dir real)
      then begin
        Counter.bump t.counters Counters.fastpath_prefix_stale;
        None
      end
      else begin
        match real.d_mnt with
        | None ->
          Counter.bump t.counters Counters.fastpath_prefix_stale;
          None
        | Some mnt ->
          let ancestor = Vfs.Mount.traverse_mounts { mnt; dentry = real } in
          Some (ancestor, k + 1, Signature.snaps_cursor sc.snaps k)
      end)
  end

(* The one write-locked miss body (§3.2, §3.5): every fastpath miss ends
   here — a sequential believed miss, the locked re-probe of a raced
   lookup, and each deferred op of a batch (§3.9).  Resolve with
   collection and repopulate the DLHT/PCC.  When the probe left a
   validated resume candidate, only the uncached suffix is walked, from
   the longest cached ancestor ([Walk.resolve_in_mode ~start_at]), so a deep miss
   costs O(suffix), not O(depth).  §3.2: results may only repopulate if
   no shootdown ran concurrently; under the write lock the counter check
   never fires, but it documents (and preserves) the protocol.  Caller holds the write
   lock; [ctx.cwd] is the walk origin for relative paths. *)
let fallback t ctx ~flags sc path ~within =
  Counter.bump t.counters Counters.fastpath_fallback;
  Trace.stamp_on sc.spans Trace.ev_fallback 0;
  let flags = { flags with Walk.collect = true } in
  let invalidation_before = Dcache.invalidation_counter t.dcache in
  let result, pop_start =
    match resume_plan t ctx sc path with
    | Some (ancestor, depth, pos) ->
      Counter.bump t.counters Counters.fastpath_prefix_resume;
      Trace.stamp_on sc.spans Trace.ev_prefix_resume depth;
      Timers.record t.timers Timers.resume_depth depth;
      (* The resumed walk still collects, so the suffix prefixes are
         published and the next miss lands one component deeper. *)
      (Walk.resolve_in_mode Walk.Ref t.dcache ctx ~flags ~start_at:ancestor ~pos path, ancestor)
    | None -> (Walk.resolve_in_mode Walk.Ref t.dcache ctx ~flags path, ctx.Walk.cwd)
  in
  (* §3.2 extended to I/O failures: a walk that died on a transient EIO
     says nothing trustworthy about the tree — the visited prefix may
     describe state the device no longer backs — so publish nothing and
     let a later, healthy walk repopulate. *)
  (match result.Walk.outcome with
  | Error Errno.EIO -> Counter.bump t.counters Counters.fastpath_eio_no_populate
  | Ok _ | Error _ ->
    if Dcache.invalidation_counter t.dcache = invalidation_before then
      populate t ctx ~visited:result.Walk.visited ~absolute:result.Walk.absolute
        ~start:pop_start);
  match result.Walk.outcome with
  | Ok r -> within r.mnt r.dentry
  | Error e -> Error e

let note_lockless_retry t sc =
  Counter.bump t.counters Counters.fastpath_lockless_retry;
  Trace.stamp_on sc.spans Trace.ev_lockless_retry 0;
  Counter.bump t.counters Counters.seqcount_retry

(* --- the per-op attempt (§3.2, §3.9) ---

   One probe of one op under a given window, shared by the sequential
   loop and the batch.  [vsnap >= 0]: no lock held, [vsnap] is the even
   write-sequence snapshot the probe validates against; [vsnap < 0]: the
   write lock is held.  A verdict — hit, cached negative, prefix fast-fail,
   a path-validation error — is returned; the rest is raised, as constant
   exceptions so the warm path allocates nothing: [Fall_back] is a miss
   whose reads passed validation (a believed miss: resolve it under the
   write lock), [Seq_retry] a probe that raced a writer (already noted;
   the caller retries).  Path validation costs two compares here; the
   scan finds a too-long component on its own pass. *)
let attempt t ctx ~start ~flags sc path ~within ~vsnap =
  let len = String.length path in
  if len = 0 then Errno.to_error Errno.ENOENT
  else if len > Path.max_path then Errno.to_error Errno.ENAMETOOLONG
  else begin
    match probe_into t ctx ~start ~flags sc path ~within ~vsnap with
    | result ->
      Counter.bump t.counters Counters.fastpath_hit;
      Trace.stamp_on sc.spans Trace.ev_fast_hit 0;
      result
    | exception Neg_fail ->
      (* Prefix fast-fail (§3.5): the verdict passed its validation inside
         the probe, so it is as good as a hit — no walk, no lock. *)
      Errno.to_error sc.neg_errno
    | exception Name_too_long -> Errno.to_error Errno.ENAMETOOLONG
    | exception Seq_retry ->
      (* Under the write lock no stripe section can be live: this is
         stripe-recording overflow on an absurdly deep path — walk it. *)
      if vsnap < 0 then raise_notrace Fall_back;
      note_lockless_retry t sc;
      raise_notrace Seq_retry
    | exception Fall_back ->
      if
        vsnap < 0
        || (Seqcount.read_validate (Dcache.write_seq t.dcache) vsnap && stripes_ok sc)
      then raise_notrace Fall_back
      else begin
        note_lockless_retry t sc;
        raise_notrace Seq_retry
      end
  end

(* One op resolved under the write lock its caller holds: the raced
   sequential lookup whose optimistic attempts ran out, and each deferred op
   of a batched submission (§3.9) — re-probe, then the miss body.  The
   write lock excludes every writer, exclusive or sharded, so the probe
   needs no validation, and a raced reader still ends in a re-probe rather
   than a walk.  [ctx.cwd] is the walk origin for relative paths. *)
let resolve_locked t ctx ~flags sc path ~within =
  match attempt t ctx ~start:ctx.Walk.cwd ~flags sc path ~within ~vsnap:(-1) with
  | result -> result
  | exception Fall_back -> fallback t ctx ~flags sc path ~within

(* An odd write sequence means an exclusive writer holds the write lock:
   wait it out on the read side, whose backoff yields to a descheduled
   holder, rather than spend every attempt spinning on it. *)
let wait_writer t =
  let lock = Dcache.lock t.dcache in
  Rwlock.read_lock lock;
  Rwlock.read_unlock lock

(* --- the retry discipline (§3.2, mirroring RCU-walk → ref-walk) ---

   The sequential loop.  The probe runs with no lock, validated at its
   commit point against the dcache write sequence and, sharded, the
   stripes it recorded.  A raced probe is retried a bounded number of
   times: a raced write section is a few dozen instructions, so the race is
   gone almost immediately.  Only then does the lookup re-probe once under
   the write lock ({!resolve_locked}), counted as "fastpath_locked_probe";
   the read lock would not do, since sharded writers hold its read side.
   The write lock is the last resort, not the wait: its section bumps the
   write sequence and so fails every concurrent lockless probe.  A believed
   miss goes straight to the write-locked miss body. *)
let max_attempts = 8

let rec probe_optimistic t ctx ~start ~flags sc path ~within ~tries =
  let snap = Seqcount.read_begin (Dcache.write_seq t.dcache) in
  if snap land 1 <> 0 then begin
    wait_writer t;
    retry_optimistic t ctx ~start ~flags sc path ~within ~tries
  end
  else begin
    match attempt t ctx ~start ~flags sc path ~within ~vsnap:snap with
    | result -> result
    | exception Seq_retry -> retry_optimistic t ctx ~start ~flags sc path ~within ~tries
    | exception Fall_back ->
      let ctx = { ctx with Walk.cwd = start } in
      Dcache.with_write t.dcache (fun () -> fallback t ctx ~flags sc path ~within)
  end

and retry_optimistic t ctx ~start ~flags sc path ~within ~tries =
  if tries + 1 >= max_attempts then begin
    Counter.bump t.counters Counters.fastpath_locked_probe;
    let ctx = { ctx with Walk.cwd = start } in
    Dcache.with_write t.dcache (fun () -> resolve_locked t ctx ~flags sc path ~within)
  end
  else begin
    Domain.cpu_relax ();
    probe_optimistic t ctx ~start ~flags sc path ~within ~tries:(tries + 1)
  end

(* Non-empty components from [i] — the scan's own count — for a path no
   probe on this domain scanned to its end. *)
let rec count_components path i n =
  let sp = Path.next ~lexical:false path i in
  if sp < 0 then n else count_components path (Path.span_stop sp) (n + 1)

(* The count [sc]'s last probe took, when it scanned this very string
   (physical identity) to its end. *)
let scanned_components sc path =
  if sc.snap_path == path && sc.comps >= 0 then sc.comps else count_components path 0 0

(* Table 1's statistics for one lookup of [path] with [comps] components. *)
let count_path t path comps =
  Counter.bump t.counters Counters.path_lookup;
  Counter.add t.counters Counters.path_bytes (String.length path);
  Counter.add t.counters Counters.path_comps comps

let baseline_resolve mode t ctx ~flags path ~within =
  match (Walk.resolve_in_mode mode t.dcache ctx ~flags path).Walk.outcome with
  | Ok r -> within r.mnt r.dentry
  | Error e -> Error e

(* [within] runs on the resolved (mount, dentry) while the lookup is still
   protected (validated on a fastpath hit, write side on fallback), so
   callers can pin dentries or check permissions without a race against
   eviction.  This is the allocation-free entry point: a warm DLHT hit
   builds no [path_ref], no closure and no option — the only allocation is
   whatever [within] itself does. *)
let lookup_into_raw t ctx ?start ?(flags = Walk.default_flags) ~note_path path ~within =
  let start = match start with Some s -> s | None -> ctx.Walk.cwd in
  if not (config t).Config.fastpath then begin
    (* Baseline kernel: component-at-a-time only.  *at()-style lookups
       resolve relative to [start]; the slowpath reads the origin from the
       context's cwd. *)
    let ctx = if start == ctx.Walk.cwd then ctx else { ctx with Walk.cwd = start } in
    (* The read side by hand, as on the probe: a [with_read] closure
       would cost 8 words per lookup. *)
    let lock = Dcache.lock t.dcache in
    Rwlock.read_lock lock;
    let result =
      match baseline_resolve Walk.Rcu t ctx ~flags path ~within with
      | result ->
        Rwlock.read_unlock lock;
        result
      | exception e -> (
        Rwlock.read_unlock lock;
        match e with
        | Walk.Need_refwalk ->
          Counter.bump t.counters Counters.walk_refwalk_fallback;
          Counter.bump t.counters Counters.seqcount_retry;
          Trace.stamp Trace.ev_refwalk 0;
          Dcache.with_write t.dcache (fun () ->
              baseline_resolve Walk.Ref t ctx ~flags path ~within)
        | e -> raise e)
    in
    if note_path then count_path t path (count_components path 0 0);
    result
  end
  else begin
    let sc = Domain.DLS.get scratch_key in
    let result = probe_optimistic t ctx ~start ~flags sc path ~within ~tries:0 in
    if note_path then count_path t path (scanned_components sc path);
    result
  end

(* Latency attribution (the timer table's lookups group): every public
   lookup is timed and recorded into the histogram of its outcome class.
   Classification works backwards from what is observable after the fact:
   an EIO is its own class (I/O failure, never cached); any other error is
   a negative; a success on a fastpath-less configuration is the slowpath;
   a success that bumped the fallback counter went probe-miss-then-slowpath;
   the rest are fastpath hits.  Disarmed, the wrapper is one
   load-and-branch — the warm path stays allocation-free. *)
let lookup_into t ctx ?start ?flags ?(note_path = false) path ~within =
  if not t.timers.Timers.lookups then lookup_into_raw t ctx ?start ?flags ~note_path path ~within
  else begin
    let fallbacks_before = Counter.get t.counters Counters.fastpath_fallback in
    let t0 = Clock.monotonic_ns () in
    let result = lookup_into_raw t ctx ?start ?flags ~note_path path ~within in
    let cls =
      match result with
      | Error Errno.EIO -> Timers.eio
      | Error _ -> Timers.negative
      | Ok _ ->
        if not (config t).Config.fastpath then Timers.slowpath
        else if Counter.get t.counters Counters.fastpath_fallback > fallbacks_before then
          Timers.fallback_hit
        else Timers.fastpath_hit
    in
    Timers.stop t.timers cls t0;
    result
  end

let path_components path = scanned_components (Domain.DLS.get scratch_key) path
let note_path t path = count_path t path (path_components path)

let lookup_with t ctx ?start ?flags ?note_path path ~within =
  lookup_into t ctx ?start ?flags ?note_path path ~within:(fun mnt dentry -> within { mnt; dentry })

let lookup t ctx ?start ?flags ?note_path path =
  let absolute = Path.is_absolute path in
  match
    lookup_into t ctx ?start ?flags ?note_path path ~within:(fun mnt dentry -> Ok { mnt; dentry })
  with
  | Ok r -> { Walk.outcome = Ok r; visited = []; absolute }
  | Error e -> { Walk.outcome = Error e; visited = []; absolute }

(* --- vectored probes (§3.9) --- *)

(* Phase 2: the deferred misses, sorted by path so ops sharing ancestors
   run adjacently — the group's first miss walks (and populates) the
   shared prefix, the rest resume from it, most with a one-component
   walk — under ONE write-lock acquisition for the whole group.
   Misses allocate anyway (walks build lists); no packing games here. *)
let batch_slowpath t ctx sc path flags prepare within complete deferred ndef =
  (* Insertion sort of the index slice: batches are small, and adjacency
     by path prefix is all the grouping needs. *)
  for k = 1 to ndef - 1 do
    let v = deferred.(k) in
    let pv = path v in
    let j = ref (k - 1) in
    while !j >= 0 && String.compare (path deferred.(!j)) pv > 0 do
      deferred.(!j + 1) <- deferred.(!j);
      decr j
    done;
    deferred.(!j + 1) <- v
  done;
  Counter.add t.counters Counters.fastpath_batch_deferred ndef;
  Dcache.with_write t.dcache (fun () ->
      for k = 0 to ndef - 1 do
        let i = deferred.(k) in
        prepare i;
        (* A hit here means an earlier miss in the group already populated
           this path. *)
        complete i (resolve_locked t ctx ~flags:(flags i) sc (path i) ~within)
      done)

(* The public batched entry.  [path]/[flags]/[prepare]/[complete] are
   indexed accessors the caller allocates once per ring — not per submit —
   and [deferred] is caller-owned scratch of length >= [n]; ops resolve
   relative to the context's cwd, like the sequential default.  The
   baseline (fastpath off) degrades to per-op sequential lookups so the
   API is uniformly available.  Returns the number of validation windows
   opened, the caller's measure of the amortization.

   Phase 1 runs every queued op through {!attempt} under ONE shared
   validation window: a single [Seqcount.read_begin] snapshot serves the
   whole run, and each op's commit check validates that shared snapshot
   plus its own recorded stripes.  This is strictly stronger than the
   sequential per-op window — the shared snapshot is older than any per-op
   one would be — so every interleaving accepted here would also be
   accepted by the same ops issued back to back.  What is the batch's own:
   a raced op splits the batch ("fastpath_batch_split") and reopens the
   window, an odd snapshot waits the writer out as the sequential loop
   does, and after [max_attempts] consecutive races the op is deferred to
   phase 2 (writer storm: resolve authoritatively); a believed miss is
   deferred at once and keeps the window.  A completed op whose window no
   longer validates — a writer ran meanwhile — reopens it without
   counting a split.  Phase 1 is part of the
   zero-allocation warm path (asserted per batch by [t_alloc]): its refs
   are never captured, so they compile to mutable locals. *)
let probe_batch t ctx ~n ~path ~flags ~prepare ~within ~complete ~deferred =
  if not (config t).Config.fastpath then begin
    for i = 0 to n - 1 do
      prepare i;
      complete i (lookup_into_raw t ctx ~flags:(flags i) ~note_path:false (path i) ~within)
    done;
    n
  end
  else begin
    let sc = Domain.DLS.get scratch_key in
    let seq = Dcache.write_seq t.dcache in
    let i = ref 0 and ndef = ref 0 and windows = ref 0 and spins = ref 0 in
    let snap = ref (-1) in
    while !i < n do
      let raced =
        if !snap < 0 then begin
          let s = Seqcount.read_begin seq in
          if s land 1 <> 0 then begin
            wait_writer t;
            true
          end
          else begin
            snap := s;
            incr windows;
            false
          end
        end
        else begin
          let op = !i in
          prepare op;
          match
            attempt t ctx ~start:ctx.Walk.cwd ~flags:(flags op) sc (path op) ~within
              ~vsnap:!snap
          with
          | result ->
            complete op result;
            if not (Seqcount.read_validate seq !snap) then snap := -1;
            spins := 0;
            incr i;
            false
          | exception Fall_back ->
            deferred.(!ndef) <- op;
            incr ndef;
            spins := 0;
            incr i;
            false
          | exception Seq_retry ->
            Counter.bump t.counters Counters.fastpath_batch_split;
            Trace.stamp_on sc.spans Trace.ev_batch_split op;
            snap := -1;
            true
        end
      in
      if raced then begin
        if !spins + 1 >= max_attempts then begin
          deferred.(!ndef) <- !i;
          incr ndef;
          spins := 0;
          incr i
        end
        else begin
          Domain.cpu_relax ();
          incr spins
        end
      end
    done;
    if !ndef > 0 then
      batch_slowpath t ctx sc path flags prepare within complete deferred !ndef;
    !windows
  end
