(** Cache-fed readdir into the per-process dirent scratch (§5.1).

    A DIR_COMPLETE directory's cached children {e are} its listing, so a
    warm readdir needs no backend call, no locks and no allocation: the
    warm path snapshots the dcache-wide write sequence, the directory's
    own-id stripe seqcount and the directory generation ([d_dir_gen]),
    walks the intrusive child list storing each entry as three parallel
    array writes into the process's preallocated {!Proc.dirent_scratch},
    then revalidates all three snapshots.  Any overlapping write section,
    any sharded mutation of this directory, and any readdir-visible change
    each bump one of the three counters, so a validated walk is a
    consistent point-in-time listing — the same §3.4 discipline the
    lockless lookup fastpath commits under.

    The cold path runs under the directory's own-id stripe (or the write
    lock when unsharded): it grows the scratch as needed, serves a
    complete directory from its cached children, and otherwise lists the
    backend and {e promotes} the result — caching unlisted names as
    [Partial] children and setting DIR_COMPLETE — so the next call is
    warm.  Promotion under the parent stripe rather than the global write
    lock is the point: concurrent listings of different directories
    proceed in parallel with each other and with sharded creates.  The
    backend is the one source of an incomplete directory's listing; with
    completeness off the section lists it every time and promotes
    nothing.

    {!fill} is the only code that lists a directory.  [Syscalls.readdir_fill]
    reads the scratch in place; [Syscalls.getdents] copies it into its
    stream on a stream's first call, and [Syscalls.readdir_path] into a
    list. *)

open Dcache_types
open Dcache_vfs.Types
module Dcache = Dcache_vfs.Dcache
module Inode = Dcache_vfs.Inode
module Config = Dcache_vfs.Config
module Fs = Dcache_fs.Fs_intf
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Rwlock = Dcache_util.Rwlock
module Locktab = Dcache_util.Locktab
module Dlist = Dcache_util.Dlist
module Seqcount = Dcache_util.Seqcount
module Fault = Dcache_util.Fault

let dcache proc = Kernel.dcache proc.Proc.kernel
let kconfig proc = Kernel.config proc.Proc.kernel
let counters proc = Kernel.counters proc.Proc.kernel

exception Readdir_errno of Errno.t
(** Error escape for {!fill}: boxing a [result] would put two words on the
    otherwise allocation-free warm path.  Raised cold, caught by thin
    wrappers. *)

(* Raised (constant, no allocation) when the optimistic walk would outgrow
   the scratch: growth allocates, so the locked path grows instead. *)
exception Scratch_overflow

(* Crash-fault site for the stripe-locked promotion section, registered by
   [Syscalls.install_crash_sites] under "syscalls.sharded_readdir" so it
   rides the same injector as the other sharded sections. *)
let crash_point proc =
  match Kernel.crash_sites proc.Proc.kernel with
  | None -> ()
  | Some cs -> Fault.crash_point cs.Kernel.cs_readdir

(* Run [f] under whatever guards this directory's children, completeness
   bit and generation: the directory's own-id stripe (plus the rwlock read
   side) when sharded, the write lock otherwise. *)
let with_dir_stripe proc dir f =
  let d = dcache proc in
  match Dcache.stripes d with
  | Some tab ->
    Dcache.with_read d (fun () ->
        Locktab.with_lock tab (Locktab.index tab dir.d_id) (fun () ->
            crash_point proc;
            f ()))
  | None -> Dcache.with_write d f

(* One intrusive pass over [dir]'s cached children into [ds] starting at
   slot [i]; returns the end slot.  A complete directory has no negative
   children ({!Dcache.set_complete} drops them), so the walk visits
   entries only; the skip below serves a torn racy walk, which the caller's
   validation rejects anyway.  Everything here is field reads and
   [Array.unsafe_set] stores: the walk allocates nothing.  A torn list
   (concurrent splice) can only cut the walk short or revisit nodes; the
   [cap] check bounds it either way, and the caller's seqcount validation
   rejects whatever a race produced. *)
let rec scratch_walk ds cap node i =
  match node with
  | None -> i
  | Some n ->
    let child = Dlist.value n in
    let next = Dlist.next n in
    (match child.d_state with
    | Negative _ -> scratch_walk ds cap next i
    | Partial { p_ino; p_kind } ->
      if i >= cap then raise Scratch_overflow;
      Proc.scratch_set ds i child.d_name p_ino p_kind;
      scratch_walk ds cap next (i + 1)
    | Positive inode ->
      if i >= cap then raise Scratch_overflow;
      let attr = Inode.attr inode in
      Proc.scratch_set ds i child.d_name attr.Dcache_types.Attr.ino
        attr.Dcache_types.Attr.kind;
      scratch_walk ds cap next (i + 1))

(* One optimistic fill attempt.  Returns the end slot on success, [-1] on
   validation failure (retryable), [-2] on scratch overflow (the locked
   path must grow first). *)
let scratch_attempt d tab dir ds =
  let ws = Dcache.write_seq d in
  let si = Locktab.index tab dir.d_id in
  let sq = Locktab.seq tab si in
  let vsnap = Seqcount.read_begin ws in
  let ssnap = Seqcount.read_begin sq in
  if vsnap land 1 <> 0 || ssnap land 1 <> 0 then -1
  else begin
    let gen = dir.d_dir_gen in
    if not dir.d_complete then -1
    else begin
      match
        scratch_walk ds (Proc.scratch_cap ds) (Dlist.peek_front dir.d_children) 0
      with
      | exception Scratch_overflow -> -2
      | n ->
        (* Validation order matters: the walk's loads must all precede the
           re-reads.  Any concurrent write section (vsnap), any sharded
           mutation of this directory (ssnap) or any readdir-visible
           change (gen, completeness) invalidates the attempt. *)
        if
          Seqcount.read_validate ws vsnap
          && Seqcount.read_validate sq ssnap
          && dir.d_dir_gen = gen && dir.d_complete
        then n
        else -1
    end
  end

let scratch_retries = 4

let rec scratch_tries d tab dir ds tries =
  if tries = 0 then -1
  else begin
    match scratch_attempt d tab dir ds with
    | -1 -> scratch_tries d tab dir ds (tries - 1)
    | n -> n (* end slot, or -2: retrying an overflow cannot help *)
  end

(* Locked fills: growth allowed, so these serve listings of any size.
   Under the lock nothing splices the child list, so the walk cannot
   overflow the grown scratch. *)

let scratch_fill_children proc dir =
  let ds = proc.Proc.dirents in
  Proc.scratch_grow ds (Dlist.length dir.d_children);
  scratch_walk ds (Proc.scratch_cap ds) (Dlist.peek_front dir.d_children) 0

let scratch_fill_listing proc (listing : Fs.dirent list) =
  let ds = proc.Proc.dirents in
  Proc.scratch_grow ds (List.length listing);
  List.fold_left
    (fun i (e : Fs.dirent) ->
      Proc.scratch_set ds i e.Fs.name e.Fs.ino e.Fs.kind;
      i + 1)
    0 listing

(* Promote a backend listing into the dcache (§5.1): cache unlisted names
   as [Partial] children, and mark the directory DIR_COMPLETE unless a
   cached negative contradicts the listing (the conflict resolves through
   the coherence machinery, not here).  Marking it complete drops its
   other negatives: the listing now answers every absence.  Returns
   whether the directory was marked complete.  Caller holds the
   directory's own-id stripe or the write lock and has revalidated the
   directory under it.  [Fs.readdir]
   returns the whole listing in one call, so the listing and the
   promotion share one lock section and no mutation can fall between
   them. *)
let promote_listing_locked proc dir (listing : Fs.dirent list) =
  let d = dcache proc in
  let safe = ref true in
  List.iter
    (fun (entry : Fs.dirent) ->
      match Dcache.lookup d dir entry.Fs.name with
      | Some child -> if dentry_is_negative child then safe := false
      | None ->
        ignore
          (Dcache.add_child d dir entry.Fs.name
             (Partial { p_ino = entry.Fs.ino; p_kind = entry.Fs.kind })))
    listing;
  if !safe then begin
    Dcache.set_complete d dir;
    Counter.bump (counters proc) Counters.readdir_promoted
  end;
  !safe

(* A directory is fit to serve/promote if it is still hashed (roots have
   no parent and are never hashed). *)
let dir_live dir = dir.d_parent = None || dir.d_hashed

(* A negative child with cached children of its own heads a deep-negative
   chain (§5.2).  The deeper negatives sit on their own parents' stripe
   lists, so only the write lock may drop the chain when the listing
   completes [dir]: the stripe section raises this and the fill reruns
   under the write lock. *)
exception Deep_negatives

let heads_deep_negatives dir =
  Dlist.exists
    (fun c -> dentry_is_negative c && not (Dlist.is_empty c.d_children))
    dir.d_children

let fill_locked proc inode dir =
  let d = dcache proc in
  let completes = (kconfig proc).Config.dir_completeness in
  let section () =
    if not (dir_live dir) then Error Errno.ENOENT
    else if Dcache.is_complete d dir then begin
      Counter.bump (counters proc) Counters.readdir_scratch_fill;
      Counter.bump (counters proc) Counters.readdir_from_cache;
      Ok (scratch_fill_children proc dir)
    end
    else begin
      if completes && heads_deep_negatives dir && not (Rwlock.write_held (Dcache.lock d))
      then raise Deep_negatives;
      Counter.bump (counters proc) Counters.readdir_from_fs;
      match (Inode.fs inode).Fs.readdir (Inode.ino inode) with
      | Error e -> Error e
      | Ok listing ->
        let complete = completes && promote_listing_locked proc dir listing in
        Counter.bump (counters proc) Counters.readdir_scratch_fill;
        if complete then Ok (scratch_fill_children proc dir)
        else Ok (scratch_fill_listing proc listing)
    end
  in
  let r =
    try with_dir_stripe proc dir section
    with Deep_negatives -> Dcache.with_write d section
  in
  Dcache.reclaim_overflow d;
  r

(** Fill [proc]'s dirent scratch with the listing of the open directory
    [dir] (inode [inode]); returns the entry count and sets [ds_n] to
    it.  Entries are readable through
    [proc.Proc.dirents] until the next scratch-filling call on the same
    process.  Raises {!Readdir_errno} on backend failure.  The warm path
    (sharded config, completeness on, DIR_COMPLETE directory) is lockless
    and allocation-free. *)
let fill proc inode dir =
  let d = dcache proc in
  let ds = proc.Proc.dirents in
  let n =
    match Dcache.stripes d with
    | Some tab when (kconfig proc).Config.dir_completeness ->
      scratch_tries d tab dir ds scratch_retries
    | _ -> -1
  in
  if n >= 0 then begin
    ds.Proc.ds_n <- n;
    Counter.bump (counters proc) Counters.readdir_scratch_warm;
    n
  end
  else begin
    match fill_locked proc inode dir with
    | Ok n ->
      ds.Proc.ds_n <- n;
      n
    | Error e -> raise (Readdir_errno e)
  end
