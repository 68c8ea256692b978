open Dcache_types
open Dcache_vfs.Types
module Vfs = Dcache_vfs
module Dcache = Vfs.Dcache
module Walk = Vfs.Walk
module Mount = Vfs.Mount
module Inode = Vfs.Inode
module Config = Vfs.Config
module Lsm = Dcache_cred.Lsm
module Cred = Dcache_cred.Cred
module Fastpath = Dcache_core.Fastpath
module Fs = Dcache_fs.Fs_intf
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Locktab = Dcache_util.Locktab
module Dlist = Dcache_util.Dlist
module Fault = Dcache_util.Fault
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers
module Batch = Batch

type 'a r = ('a, Errno.t) result

let ( let* ) = Result.bind
let counters proc = Kernel.counters proc.Proc.kernel
let dcache proc = Kernel.dcache proc.Proc.kernel
let kconfig proc = Kernel.config proc.Proc.kernel

(* Syscall entry: bump the per-kernel counter and mint a request-scoped
   span (§3.8).  The span id installs as this domain's current span and
   rides every subsequent Trace stamp, netfs RPC and lease-break
   notification until the next syscall entry on the domain.  Disarmed,
   [span_enter] is a load-and-branch returning 0 and nothing is stamped. *)
let sys proc id =
  Counter.bump (counters proc) id;
  let span = Trace.span_enter () in
  if span <> 0 then Trace.stamp_span span Trace.ev_syscall 0

(* Per-lookup path statistics (reported in the paper's Table 1) for a
   lookup that did not go through [Fastpath.lookup_into ~note_path:true],
   which counts its own. *)
let note_lookup proc path = Fastpath.note_path (Kernel.fastpath proc.Proc.kernel) path

let permission proc inode mask =
  if Lsm.permission (Kernel.registry proc.Proc.kernel) proc.Proc.cred (Inode.attr inode) mask
  then Ok ()
  else Error Errno.EACCES

let positive_inode d =
  match d.d_state with
  | Positive inode -> Ok inode
  | Partial _ -> Dcache.promote d
  | Negative e -> Error e

(* --- resolution helpers --- *)

let lookup_flags ?(follow = true) ?(must_dir = false) () =
  { Walk.follow_last = follow; must_dir; collect = false }

(** Non-mutating resolution via the configured lookup machinery (fastpath
    with fallback, or the baseline two-phase slowpath).  Takes locks
    internally; must not be called with the dcache lock held. *)
let resolve ?start ?flags proc path =
  let flags = match flags with Some f -> f | None -> lookup_flags () in
  let ctx = Proc.walk_ctx proc in
  (Fastpath.lookup (Kernel.fastpath proc.Proc.kernel) ctx ?start ~flags ~note_path:true path)
    .Walk.outcome

let resolve_with ?start ?flags proc path ~within =
  let flags = match flags with Some f -> f | None -> lookup_flags () in
  let ctx = Proc.walk_ctx proc in
  Fastpath.lookup_with (Kernel.fastpath proc.Proc.kernel) ctx ?start ~flags ~note_path:true path
    ~within

(* What a namespace mutation works on, whichever lock scope resolved it:
   the containing directory, the final name, and the dcache's child for
   that name ([None] when none is cached, or — global scope only — when
   the fs reports absence without caching negatives).  [striped] is true
   when the body runs under the parent's stripe rather than the global
   write lock. *)
type target = { dir : path_ref; name : string; child : dentry option; striped : bool }

(** Global-scope resolution for mutating operations: caller must hold the
    write lock.  Collects and publishes the prefix chain so that the
    optimized kernel's subsequent lookups of these directories take the
    fastpath. *)
let resolve_parent_locked ?start proc path =
  note_lookup proc path;
  let ctx = Proc.walk_ctx proc in
  let ctx = match start with Some s -> { ctx with Walk.cwd = s } | None -> ctx in
  let collect = (kconfig proc).Config.fastpath in
  let* p = Walk.resolve_parent Walk.Ref (dcache proc) ctx ~collect path in
  if collect then
    Fastpath.populate (Kernel.fastpath proc.Proc.kernel) ctx ~visited:p.Walk.p_visited
      ~absolute:p.Walk.p_absolute ~start:ctx.Walk.cwd;
  Ok { dir = p.Walk.parent; name = p.Walk.last; child = p.Walk.child; striped = false }

let resolve_locked ?flags proc path =
  note_lookup proc path;
  let flags = match flags with Some f -> f | None -> lookup_flags () in
  let ctx = Proc.walk_ctx proc in
  (Walk.resolve_in_mode Walk.Ref (dcache proc) ctx ~flags path).Walk.outcome

let with_write proc f = Dcache.with_write (dcache proc) f

(* Write and search permission on the containing directory; returns its
   inode for the backend call. *)
let writable_dir proc (dir : path_ref) =
  if dir.mnt.mnt_readonly then Error Errno.EROFS
  else begin
    let* inode = positive_inode dir.dentry in
    let* () = permission proc inode (Access.union Access.may_write Access.may_exec) in
    Ok inode
  end

let check_not_mountpoint proc t child =
  if Mount.is_mountpoint proc.Proc.ns t.dir.mnt child then Error Errno.EBUSY else Ok ()

(* Backend entry mutations change the parent directory's own attributes
   (size at minimum; each backend accounts differently), so the cached
   snapshot must be re-read or a later eviction-and-refetch would observe
   a different answer than the warm cache.  The mutation itself already
   succeeded, so a failed re-read is ignored rather than surfaced. *)
let refresh_dir_attr dir_inode =
  ignore (Inode.refresh dir_inode : (unit, Errno.t) result)

(* Instantiate a freshly created child in the dcache.  A cached negative
   is promoted in place: the name keeps its signature and DLHT entry, so
   the fastpath serves the new positive result immediately.  Creating a
   non-directory over it evicts any deep negative children; a new
   directory is empty, so deep negatives below it stay valid (§5.2) until
   {!Dcache.set_complete} drops them. *)
let instantiate proc t (attr : Attr.t) =
  let d = dcache proc in
  let parent = t.dir.dentry in
  let inode = Dcache.iget parent.d_sb attr in
  Dcache.bump_dir_gen parent;
  match t.child with
  | Some child ->
    if dentry_is_negative child then begin
      if not (File_kind.equal attr.Attr.kind File_kind.Directory) then
        Dcache.prune_children d child;
      Dcache.neg_forget d child
    end;
    child.d_state <- Positive inode;
    child.d_target_sig <- None;
    child
  | None -> (
    match Dcache.add_child d parent t.name (Positive inode) with
    | Ok child -> child
    | Error _ -> assert false)

(* Fig. 1 hooks: a path-based syscall's time is charged to its class on
   the kernel's timer table while the syscalls group is armed.  Disarmed,
   [sys_clock] is a load-and-branch returning 0 and [sys_charge] a branch
   on it. *)
let sys_clock proc =
  if (Kernel.timers proc.Proc.kernel).Timers.syscalls then Dcache_util.Clock.monotonic_ns ()
  else 0

let sys_charge proc id t0 = if t0 <> 0 then Timers.stop (Kernel.timers proc.Proc.kernel) id t0

(* --- metadata ---

   stat, lstat, fstatat and access are most workloads' warm path.  They
   resolve through [Fastpath.lookup_into] with top-level [within]s and
   preallocated flags: a warm hit builds the walk context and the [Ok] it
   returns, no closure, [path_ref] or [Walk.result_]. *)

let follow_flags = Some (lookup_flags ())
let nofollow_flags = Some (lookup_flags ~follow:false ())

let stat_attr _mnt d =
  match d.d_state with
  | Positive inode -> Ok (Inode.attr inode)
  | Partial _ | Negative _ -> Error Errno.ENOENT

let positive_within _mnt d = positive_inode d

let lookup_into ?start proc path flags ~within =
  Fastpath.lookup_into (Kernel.fastpath proc.Proc.kernel) (Proc.walk_ctx proc) ?start ?flags
    ~note_path:true path ~within

let stat_as proc path flags id =
  let t0 = sys_clock proc in
  sys proc id;
  let r = lookup_into proc path flags ~within:stat_attr in
  sys_charge proc Timers.access_stat t0;
  r

let stat proc path = stat_as proc path follow_flags Counters.sys_stat
let lstat proc path = stat_as proc path nofollow_flags Counters.sys_lstat

let fstatat proc dirfd path ?(follow = true) () =
  let t0 = sys_clock proc in
  sys proc Counters.sys_fstatat;
  let r =
    match Proc.find_fd proc dirfd with
    | Error e -> Error e
    | Ok fd ->
      lookup_into ~start:fd.Proc.fd_ref proc path
        (if follow then follow_flags else nofollow_flags)
        ~within:stat_attr
  in
  sys_charge proc Timers.access_stat t0;
  r

let fstat proc fdnum =
  sys proc Counters.sys_fstat;
  let* fd = Proc.find_fd proc fdnum in
  Ok (Inode.attr fd.Proc.fd_inode)

(* The permission check runs on the inode the lookup returned, after it:
   a [within] closing over the credential and mask would allocate. *)
let access proc path mask =
  let t0 = sys_clock proc in
  sys proc Counters.sys_access;
  let r =
    match lookup_into proc path follow_flags ~within:positive_within with
    | Ok inode -> permission proc inode mask
    | Error e -> Error e
  in
  sys_charge proc Timers.access_stat t0;
  r

let readlink proc path =
  sys proc Counters.sys_readlink;
  let* ref_ = resolve ~flags:(lookup_flags ~follow:false ()) proc path in
  let* inode = positive_inode ref_.dentry in
  if File_kind.equal (Inode.kind inode) File_kind.Symlink then Inode.symlink_target inode
  else Error Errno.EINVAL

(* --- open and file IO --- *)

let flag_mem flag flags = List.mem flag flags

let finish_open proc flags (ref_ : path_ref) =
  let writable = flag_mem Proc.O_WRONLY flags || flag_mem Proc.O_RDWR flags in
  let readable = not (flag_mem Proc.O_WRONLY flags) in
  let want_dir = flag_mem Proc.O_DIRECTORY flags in
  let* inode = positive_inode ref_.dentry in
  let kind = Inode.kind inode in
  let* () =
    match kind with
    | File_kind.Symlink -> Error Errno.ELOOP (* only reachable with O_NOFOLLOW *)
    | File_kind.Directory -> if writable then Error Errno.EISDIR else Ok ()
    | _ -> if want_dir then Error Errno.ENOTDIR else Ok ()
  in
  let* () = if readable then permission proc inode Access.may_read else Ok () in
  let* () =
    if writable then begin
      if ref_.mnt.mnt_readonly then Error Errno.EROFS
      else permission proc inode Access.may_write
    end
    else Ok ()
  in
  let* () =
    if flag_mem Proc.O_TRUNC flags && writable && File_kind.equal kind File_kind.Regular
    then Inode.setattr inode { Fs.no_setattr with Fs.set_size = Some 0 }
    else Ok ()
  in
  Dcache.dget ref_.dentry;
  (Inode.fs inode).Fs.pin_inode (Inode.ino inode);
  let fd =
    Proc.install_fd proc ~fd:(fun num ->
        {
          Proc.fd_num = num;
          fd_ref = ref_;
          fd_inode = inode;
          fd_readable = readable;
          fd_writable = writable;
          fd_append = flag_mem Proc.O_APPEND flags;
          fd_pos = 0;
          fd_dir = None;
        })
  in
  Ok fd.Proc.fd_num

(* --- namespace mutations: one body per syscall, two lock scopes ---

   Each mutation — create-open, mkdir, unlink, rmdir, rename and callback
   invalidation — has exactly one body.  Given a [target], the body makes
   every check (EEXIST, EISDIR, ENOTDIR, EBUSY, write permission), calls
   the backend, refreshes the parent's attributes and commits to the
   dcache.  One of two lock scopes runs it, picked from cached state only:

   - The {e stripe scope} ([stripe_scope]): the parent resolves with no
     lock held, then the dcache lock's {e read} side plus the parent's
     stripe — and the child's own stripe for rmdir and invalidation, the
     second parent's for rename — are held around the body.  Writer
     domains mutating different directories proceed concurrently.
   - The {e global scope} ([with_write] + [resolve_parent_locked]): the
     only scope without a stripe table (baseline, [dcache_stripes = 0]),
     and the scope for every cached shape a stripe cannot cover.  Each
     syscall's [*_covers] predicate names those shapes (uncached names,
     [Partial] dentries, directories, extra hard links, mountpoints, deep
     children, cross-sb renames).  Taking it means "take the big lock",
     never "fail".

   Lock order inside the stripe scope: rwlock read side, then the
   stripe(s) — two at once only through [Locktab.lock2]'s index ordering —
   then leaf locks (the DLHT stripe inside [Dlht] splices, [lru_mu],
   [icache_mu]).  Eviction cannot run here (the clock walk crosses
   stripes), so capacity enforcement is deferred to
   [Dcache.reclaim_overflow] after every lock is dropped. *)

(* Crash-fault coverage for the stripe scope: a [Fault.crash_point] sits
   between the stripes' seqcount bump (inside [Locktab.lock2]) and the
   body.  A firing site raises {!Fault.Crash} out of the section, and
   [Locktab.with_lock2] and [Dcache.with_read] release the stripe(s) and
   the read lock on the way out: a leaked stripe would leave its seqcount
   odd, wedging every later lockless probe that records it and
   deadlocking [Kernel.scrub]'s [with_write].
   Sites default to [Off]; [install_crash_sites] registers them on a
   caller-owned injector, for one kernel. *)
let install_crash_sites kernel inj =
  let site name = Fault.site inj ("syscalls.sharded_" ^ name) in
  (* Registered in this order, which [Fault.sites] lists. *)
  let cs_create = site "create" in
  let cs_unlink = site "unlink" in
  let cs_rename = site "rename" in
  let cs_invalidate = site "invalidate" in
  let cs_mkdir = site "mkdir" in
  let cs_rmdir = site "rmdir" in
  (* The stripe-locked readdir promotion lives in [Readdir] (it is shared
     with the batch front-end); its site rides the same injector. *)
  let cs_readdir = site "readdir" in
  Kernel.set_crash_sites kernel
    (Some
       { Kernel.cs_create; cs_unlink; cs_rename; cs_invalidate; cs_mkdir; cs_rmdir; cs_readdir })

let clear_crash_sites kernel = Kernel.set_crash_sites kernel None

let[@inline] crash_point proc pick =
  match Kernel.crash_sites proc.Proc.kernel with
  | None -> ()
  | Some cs -> Fault.crash_point (pick cs)

(* Split [path] into (dirname, basename) when the final component is a
   plain name.  [None] dirname means the walk start itself (cwd / dirfd).
   Trailing slashes, ".", ".." and empty basenames go to the global scope. *)
let rec last_component path pos sp =
  let next = Vfs.Path.next ~lexical:false path pos in
  if next < 0 then sp else last_component path (Vfs.Path.span_stop next) next

let split_basename path =
  let sp = last_component path 0 (-1) in
  if sp < 0 || Vfs.Path.span_stop sp < String.length path || Vfs.Path.is_dot path sp
     || Vfs.Path.is_dotdot path sp
  then None
  else begin
    let i = Vfs.Path.span_start sp - 1 in
    Some ((if i < 0 then None else Some (String.sub path 0 (Int.max i 1))), Vfs.Path.name path sp)
  end

(* Resolve the containing directory with no lock held — warm parents
   resolve locklessly through the fastpath; cold ones take the ordinary
   locked fallback inside [Fastpath.lookup].  The result is re-validated
   under the parent's stripe before anything trusts it. *)
let resolve_dir ?start proc dirname =
  let ctx = Proc.walk_ctx proc in
  let ctx = match start with Some s -> { ctx with Walk.cwd = s } | None -> ctx in
  match dirname with
  | None -> Some ctx.Walk.cwd
  | Some dir -> (
    match
      (Fastpath.lookup (Kernel.fastpath proc.Proc.kernel) ctx
         ~flags:(lookup_flags ~must_dir:true ()) dir)
        .Walk.outcome
    with
    | Ok ref_ -> Some ref_
    | Error _ -> None)

(* Parent validity under its stripe: still cached (roots are never hashed),
   still a positive directory, and searchable by the caller.  A [Partial]
   parent would need a promoting mutation guarded by the {e grandparent}'s
   stripe.  Without search permission the global scope's walk answers
   EACCES before it looks at the name; the body's own checks would answer
   EEXIST, EISDIR, ENOTDIR or a cached negative's errno first. *)
let dir_valid proc (pref : path_ref) =
  let d = pref.dentry in
  (d.d_hashed || d.d_parent = None)
  &&
  match d.d_state with
  | Positive inode -> Inode.is_dir inode && Result.is_ok (permission proc inode Access.may_exec)
  | Partial _ | Negative _ -> false

(* A stripe-scope commit counts the lookups the global scope's walk would
   have counted, then enforces capacity now that no lock is held. *)
let after_stripe proc paths r =
  if Option.is_some r then begin
    List.iter (note_lookup proc) paths;
    Dcache.reclaim_overflow (dcache proc)
  end;
  r

(* The stripe scope for a single-name mutation: [Some r] when [covers]
   accepted the cached shape and [body] ran under the stripe(s), [None]
   to hand the call to the global scope.  With [~peek], the child's
   own-id stripe — which guards the child's children — is held too.  That
   id is only learnable under the parent stripe, and parent-then-child
   acquisition would invert [Locktab.lock2]'s index order, so the child is
   peeked under the parent stripe alone, both stripes are then taken in
   order, and the peek is re-validated before anything trusts it. *)
let stripe_scope ?start ?(peek = false) proc ~site path ~covers body =
  let d = dcache proc in
  match (Dcache.stripes d, split_basename path) with
  | Some tab, Some (dirname, name) -> (
    match resolve_dir ?start proc dirname with
    | None -> None
    | Some dir ->
      let si = Locktab.index tab dir.dentry.d_id in
      let section () =
        let held =
          if not peek then Some (si, None)
          else
            Locktab.with_lock tab si (fun () ->
                if dir_valid proc dir then Dcache.lookup d dir.dentry name else None)
            |> Option.map (fun c -> (Locktab.index tab c.d_id, Some c))
        in
        match held with
        | None -> None
        | Some (sj, peeked) ->
          Locktab.with_lock2 tab si sj (fun () ->
              crash_point proc site;
              if not (dir_valid proc dir) then None
              else begin
                let child = Dcache.lookup d dir.dentry name in
                let t = { dir; name; child; striped = true } in
                let unmoved =
                  match (peeked, child) with
                  | None, _ -> true
                  | Some c0, Some c -> c == c0
                  | Some _, None -> false
                in
                if unmoved && covers t then Some (body t) else None
              end)
      in
      after_stripe proc [ path ] (Dcache.with_read d section))
  | _ -> None

(* One syscall, one body: the stripe scope when it covers the cached
   shape, the global scope otherwise. *)
let mutate ?start ?peek proc ~site path ~covers body =
  match stripe_scope ?start ?peek proc ~site path ~covers body with
  | Some r -> r
  | None -> with_write proc (fun () -> Result.bind (resolve_parent_locked ?start proc path) body)

let count_striped proc t id = if t.striped then Counter.bump (counters proc) id

let has_grandchildren d =
  let deep = ref false in
  Dcache.iter_children d (fun c -> if not (Dlist.is_empty c.d_children) then deep := true);
  !deep

(* Make [t.name] on the backend and instantiate it: the create half of
   open(O_CREAT) and mkdir.  Under the stripe scope the absence verdict
   came from the cache — a negative dentry or a complete parent (§5.1) —
   so the backend existence probe was skipped; a complete parent's verdict
   is counted like the walk's complete-dir miss. *)
let create_child proc t kind mode =
  let* dir_inode = writable_dir proc t.dir in
  let* attr =
    t.dir.dentry.d_sb.sb_fs.Fs.create (Inode.ino dir_inode) t.name kind mode
      ~uid:(Cred.uid proc.Proc.cred) ~gid:(Cred.gid proc.Proc.cred)
  in
  if File_kind.equal kind File_kind.Directory then Inode.bump_nlink dir_inode 1;
  refresh_dir_attr dir_inode;
  if t.striped then begin
    Counter.bump (counters proc) Counters.create_neg_shortcut;
    if Option.is_none t.child then Counter.bump (counters proc) Counters.complete_dir_negative
  end;
  Ok (instantiate proc t attr)

(* The stripe covers a create when the cached answer is final: an existing
   name under O_EXCL, a negative leaf (deep negatives below it would need
   pruning across stripes), or a name absent from a complete directory
   (only a complete directory's absence verdict is authoritative, §5.1). *)
let create_covers proc flags t =
  match t.child with
  | Some child when dentry_is_positive child -> flag_mem Proc.O_EXCL flags
  | Some child -> Dlist.is_empty child.d_children
  | None -> Dcache.is_complete (dcache proc) t.dir.dentry

let open_create proc ~mode ~follow flags t =
  match t.child with
  | Some child when dentry_is_positive child -> (
    if flag_mem Proc.O_EXCL flags then Error Errno.EEXIST
    else begin
      match dentry_kind child with
      | Some File_kind.Symlink when follow ->
        (* Re-resolve the full path following the trailing link. *)
        Ok `Follow_symlink
      | _ ->
        let* fd = finish_open proc flags (Mount.traverse_mounts { t.dir with dentry = child }) in
        Ok (`Opened fd)
    end)
  | _ ->
    let* child = create_child proc t File_kind.Regular mode in
    Counter.bump (counters proc) Counters.files_created;
    count_striped proc t Counters.sharded_create;
    let* fd = finish_open proc flags { t.dir with dentry = child } in
    Ok (`Opened fd)

let rec do_open ?(mode = Mode.default_file) ?start proc path flags =
  let follow = not (flag_mem Proc.O_NOFOLLOW flags) in
  if not (flag_mem Proc.O_CREAT flags) then
    resolve_with ?start proc path
      ~flags:(lookup_flags ~follow ~must_dir:(flag_mem Proc.O_DIRECTORY flags) ())
      ~within:(finish_open proc flags)
  else begin
    match
      mutate ?start proc ~site:(fun cs -> cs.cs_create) path ~covers:(create_covers proc flags)
        (open_create proc ~mode ~follow flags)
    with
    | Ok (`Opened fd) -> Ok fd
    | Ok `Follow_symlink -> do_open ~mode ?start proc path (List.filter (( <> ) Proc.O_CREAT) flags)
    | Error e -> Error e
  end

let openf ?mode proc path flags =
  let t0 = sys_clock proc in
  sys proc Counters.sys_open;
  let r = do_open ?mode proc path flags in
  sys_charge proc Timers.open_ t0;
  r

let openat ?mode proc dirfd path flags =
  let t0 = sys_clock proc in
  sys proc Counters.sys_openat;
  let r =
    let* fd = Proc.find_fd proc dirfd in
    do_open ?mode ~start:fd.Proc.fd_ref proc path flags
  in
  sys_charge proc Timers.open_ t0;
  r

let close proc fdnum =
  sys proc Counters.sys_close;
  let* fd = Proc.remove_fd proc fdnum in
  Dcache.dput fd.Proc.fd_ref.dentry;
  let inode = fd.Proc.fd_inode in
  (Inode.fs inode).Fs.unpin_inode (Inode.ino inode);
  Ok ()

let read proc fdnum len =
  sys proc Counters.sys_read;
  let* fd = Proc.find_fd proc fdnum in
  if not fd.Proc.fd_readable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    let* data = (Inode.fs inode).Fs.read (Inode.ino inode) ~off:fd.Proc.fd_pos ~len in
    fd.Proc.fd_pos <- fd.Proc.fd_pos + String.length data;
    Ok data
  end

let pread proc fdnum ~off ~len =
  sys proc Counters.sys_pread;
  let* fd = Proc.find_fd proc fdnum in
  if not fd.Proc.fd_readable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    (Inode.fs inode).Fs.read (Inode.ino inode) ~off ~len
  end

let do_write (fd : Proc.fd) ~off data =
  if not fd.Proc.fd_writable then Error Errno.EBADF
  else begin
    let inode = fd.Proc.fd_inode in
    let* written = (Inode.fs inode).Fs.write (Inode.ino inode) ~off data in
    Inode.note_size inode (Int.max (Inode.attr inode).Attr.size (off + written));
    Ok written
  end

let write proc fdnum data =
  sys proc Counters.sys_write;
  let* fd = Proc.find_fd proc fdnum in
  let off =
    if fd.Proc.fd_append then (Inode.attr fd.Proc.fd_inode).Attr.size else fd.Proc.fd_pos
  in
  let* written = do_write fd ~off data in
  fd.Proc.fd_pos <- off + written;
  Ok written

let pwrite proc fdnum ~off data =
  sys proc Counters.sys_pwrite;
  let* fd = Proc.find_fd proc fdnum in
  do_write fd ~off data

(* --- directory listings (§5.1): every one fills the dirent scratch --- *)

exception Readdir_errno = Readdir.Readdir_errno

let scratch_dirent (ds : Proc.dirent_scratch) i =
  { Fs.name = ds.Proc.ds_names.(i); ino = ds.Proc.ds_inos.(i); kind = ds.Proc.ds_kinds.(i) }

(** Fill the per-process dirent scratch with the full listing of the open
    directory [fdnum]; returns the entry count.  Entries are readable
    through [proc.Proc.dirents] (parallel name/ino/kind arrays) until the
    next scratch-filling call on the same process.  A warm call — sharded
    configuration, DIR_COMPLETE directory — is lockless and performs zero
    minor-heap allocation; see {!Readdir}.  @raise Readdir_errno instead
    of boxing a [result] (two words) on that path. *)
let readdir_fill proc fdnum =
  sys proc Counters.sys_readdir_fill;
  let fd =
    try Proc.find_fd_exn proc fdnum
    with Not_found -> raise (Readdir_errno Errno.EBADF)
  in
  if not (Inode.is_dir fd.Proc.fd_inode) then raise (Readdir_errno Errno.ENOTDIR);
  Readdir.fill proc fd.Proc.fd_inode fd.Proc.fd_ref.dentry

(* A stream lists once, on its first call (or first after a rewind), and
   serves every chunk from its own copy of the scratch, at [fd_pos]. *)
let getdents proc fdnum want =
  sys proc Counters.sys_getdents;
  let* fd = Proc.find_fd proc fdnum in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else begin
    let* entries =
      match fd.Proc.fd_dir with
      | Some entries -> Ok entries
      | None -> (
        match Readdir.fill proc fd.Proc.fd_inode fd.Proc.fd_ref.dentry with
        | exception Readdir_errno e -> Error e
        | n ->
          let entries = Array.init n (scratch_dirent proc.Proc.dirents) in
          fd.Proc.fd_dir <- Some entries;
          Ok entries)
    in
    let n = Array.length entries in
    let pos = Int.min fd.Proc.fd_pos n in
    let take = Int.max 0 (Int.min want (n - pos)) in
    fd.Proc.fd_pos <- pos + take;
    Ok (Array.to_list (Array.sub entries pos take))
  end

let lseek proc fdnum off =
  sys proc Counters.sys_lseek;
  let* fd = Proc.find_fd proc fdnum in
  if off < 0 then Error Errno.EINVAL
  else begin
    if off = 0 then fd.Proc.fd_dir <- None;
    fd.Proc.fd_pos <- off;
    Ok off
  end

let truncate proc path size =
  sys proc Counters.sys_truncate;
  if size < 0 then Error Errno.EINVAL
  else
    resolve_with proc path ~within:(fun ref_ ->
        let* inode = positive_inode ref_.dentry in
        if not (File_kind.equal (Inode.kind inode) File_kind.Regular) then
          Error Errno.EINVAL
        else if ref_.mnt.mnt_readonly then Error Errno.EROFS
        else begin
          let* () = permission proc inode Access.may_write in
          Inode.setattr inode { Fs.no_setattr with Fs.set_size = Some size }
        end)

(* --- namespace mutations --- *)

(* A cached name answers mkdir under the stripe: EEXIST, or a negative
   leaf promoted in place.  Deep negatives below a negative would be
   dropped when the new, empty directory is marked complete, across
   stripes, so they take the global scope.  An uncached name is covered
   only in a complete directory (§5.1). *)
let mkdir_covers proc t =
  match t.child with
  | Some child when dentry_is_negative child -> Dlist.is_empty child.d_children
  | Some _ -> true
  | None -> Dcache.is_complete (dcache proc) t.dir.dentry

let do_mkdir ?start ~mode proc path =
  mutate ?start proc ~site:(fun cs -> cs.cs_mkdir) path ~covers:(mkdir_covers proc) (fun t ->
      match t.child with
      | Some child when dentry_is_positive child -> Error Errno.EEXIST
      | _ ->
        let* child = create_child proc t File_kind.Directory mode in
        count_striped proc t Counters.sharded_mkdir;
        (* A brand-new directory's (empty) listing is fully cached (§5.1). *)
        Dcache.set_complete (dcache proc) child;
        Ok ())

let mkdir ?(mode = Mode.default_dir) proc path =
  sys proc Counters.sys_mkdir;
  do_mkdir ~mode proc path

(* An uncached name needs the slowpath's fill.  A file with extra hard
   links shares its inode's nlink with other parents' stripes, so only
   nlink = 1 stays striped. *)
let unlink_covers proc t =
  match t.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive inode ->
      Inode.is_dir inode
      || (Dlist.is_empty child.d_children
         && (not (Mount.is_mountpoint proc.Proc.ns t.dir.mnt child))
         && (Inode.attr inode).Attr.nlink = 1))

let do_unlink ?start proc path =
  mutate ?start proc ~site:(fun cs -> cs.cs_unlink) path ~covers:(unlink_covers proc) (fun t ->
      match t.child with
      | None -> Error Errno.ENOENT
      | Some child -> (
        match child.d_state with
        | Negative e -> Error e
        | Partial _ | Positive _ ->
          if dentry_is_dir child then Error Errno.EISDIR
          else begin
            let* () = check_not_mountpoint proc t child in
            let* dir_inode = writable_dir proc t.dir in
            let* child_inode = positive_inode child in
            let* () = t.dir.dentry.d_sb.sb_fs.Fs.unlink (Inode.ino dir_inode) t.name in
            refresh_dir_attr dir_inode;
            count_striped proc t Counters.sharded_unlink;
            Dcache.bump_dir_gen t.dir.dentry;
            Inode.bump_nlink child_inode (-1);
            if (Inode.attr child_inode).Attr.nlink <= 0 then
              Dcache.iforget child.d_sb (Inode.ino child_inode);
            Dcache.note_unlinked (dcache proc) child;
            Ok ()
          end))

let unlink proc path =
  let t0 = sys_clock proc in
  sys proc Counters.sys_unlink;
  let r = do_unlink proc path in
  sys_charge proc Timers.unlink t0;
  r

(* rmdir holds the target's own-id stripe too ([~peek]): it guards the
   cached names inside the removed directory.  Grandchildren live under
   their own parents' stripes, so a deeper subtree takes the global
   scope, as does a mountpoint. *)
let rmdir_covers proc t =
  match t.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive inode ->
      (not (Inode.is_dir inode))
      || not (Mount.is_mountpoint proc.Proc.ns t.dir.mnt child || has_grandchildren child))

let rmdir proc path =
  sys proc Counters.sys_rmdir;
  mutate proc ~site:(fun cs -> cs.cs_rmdir) ~peek:true path ~covers:(rmdir_covers proc)
    (fun t ->
      match t.child with
      | None -> Error Errno.ENOENT
      | Some child -> (
        match child.d_state with
        | Negative e -> Error e
        | Partial _ | Positive _ ->
          if not (dentry_is_dir child) then Error Errno.ENOTDIR
          else begin
            let* () = check_not_mountpoint proc t child in
            let* dir_inode = writable_dir proc t.dir in
            let* () = t.dir.dentry.d_sb.sb_fs.Fs.rmdir (Inode.ino dir_inode) t.name in
            count_striped proc t Counters.sharded_rmdir;
            Dcache.bump_dir_gen t.dir.dentry;
            Inode.bump_nlink dir_inode (-1);
            refresh_dir_attr dir_inode;
            (match dentry_inode child with
            | Some child_inode -> Dcache.iforget child.d_sb (Inode.ino child_inode)
            | None -> ());
            ignore (Dcache.invalidate_structure (dcache proc) child);
            Dcache.note_unlinked (dcache proc) child;
            Ok ()
          end))

let rec is_ancestor ~(of_ : dentry) candidate =
  candidate == of_
  || (match of_.d_parent with Some parent -> is_ancestor ~of_:parent candidate | None -> false)

let rename_body proc src dst =
  let d = dcache proc in
  match src.child with
  | None -> Error Errno.ENOENT
  | Some s when dentry_is_negative s -> Error Errno.ENOENT
  | Some s ->
    if not (src.dir.dentry.d_sb == dst.dir.dentry.d_sb) then Error Errno.EXDEV
    else begin
      let* () = check_not_mountpoint proc src s in
      let* old_dir = writable_dir proc src.dir in
      let* new_dir = writable_dir proc dst.dir in
      let* src_inode = positive_inode s in
      let src_is_dir = Inode.is_dir src_inode in
      let displaced = dst.child in
      let onto_itself =
        match displaced with
        | Some tgt ->
          tgt == s
          || (dentry_is_positive tgt && tgt.d_sb == s.d_sb
             && match dentry_inode tgt with
                | Some tgt_inode -> Inode.ino tgt_inode = Inode.ino src_inode
                | None -> false)
        | None -> false
      in
      if src_is_dir && is_ancestor ~of_:dst.dir.dentry s then Error Errno.EINVAL
      else if onto_itself then Ok () (* POSIX no-op *)
      else begin
        let* () =
          match displaced with
          | Some tgt when dentry_is_positive tgt -> check_not_mountpoint proc dst tgt
          | _ -> Ok ()
        in
        let rename_lock = Dcache.rename_lock d in
        Dcache_util.Seqcount.write_begin rename_lock;
        (* Invalidate direct-lookup state under both the old and new paths
           before mutating (§3.2). *)
        ignore (Dcache.invalidate_structure d s);
        (match displaced with
        | Some tgt when dentry_is_positive tgt -> ignore (Dcache.invalidate_structure d tgt)
        | _ -> ());
        match
          s.d_sb.sb_fs.Fs.rename (Inode.ino old_dir) src.name (Inode.ino new_dir) dst.name
        with
        | Error e ->
          Dcache_util.Seqcount.write_end rename_lock;
          Error e
        | Ok () ->
          Dcache.bump_dir_gen src.dir.dentry;
          Dcache.bump_dir_gen dst.dir.dentry;
          (match displaced with
          | Some tgt ->
            (match dentry_inode tgt with
            | Some tgt_inode ->
              Inode.bump_nlink tgt_inode (-1);
              if (Inode.attr tgt_inode).Attr.nlink <= 0 then
                Dcache.iforget tgt.d_sb (Inode.ino tgt_inode)
            | None -> ());
            Dcache.unhash d tgt
          | None -> ());
          Dcache.d_move d s ~new_parent:dst.dir.dentry ~new_name:dst.name;
          let cross = not (src.dir.dentry == dst.dir.dentry) in
          if src_is_dir && cross then begin
            Inode.bump_nlink old_dir (-1);
            Inode.bump_nlink new_dir 1
          end;
          refresh_dir_attr old_dir;
          if cross then refresh_dir_attr new_dir;
          count_striped proc src Counters.sharded_rename;
          (* Keep the old name cached as a negative dentry (§5.2), unless
             the old directory is complete: its listing answers the
             absence (§5.1). *)
          if
            (kconfig proc).Config.aggressive_negative
            && not (Dcache.is_complete d src.dir.dentry)
          then
            ignore (Dcache.add_child d src.dir.dentry src.name (Negative Errno.ENOENT));
          Dcache_util.Seqcount.write_end rename_lock;
          Ok ()
      end
    end

(* The stripes cover a rename of a cached non-directory leaf — not a
   mountpoint — onto an absent name or a negative leaf: a displaced
   positive target carries nlink and inode-cache bookkeeping. *)
let rename_covers proc src dst =
  match src.child with
  | None -> false
  | Some s -> (
    match s.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive inode -> (
      (not (Inode.is_dir inode))
      && Dlist.is_empty s.d_children
      && (not (Mount.is_mountpoint proc.Proc.ns src.dir.mnt s))
      &&
      match dst.child with
      | None -> true
      | Some tgt -> tgt == s || (dentry_is_negative tgt && Dlist.is_empty tgt.d_children)))

(* Rename's stripe scope holds both parents' stripes in index order: the
   cross-rename deadlock case (A→B in one domain, B→A in another)
   serializes on whichever stripe sorts first. *)
let rename_striped proc old_path new_path =
  let d = dcache proc in
  match (Dcache.stripes d, split_basename old_path, split_basename new_path) with
  | Some tab, Some (old_dir, old_name), Some (new_dir, new_name) -> (
    match (resolve_dir proc old_dir, resolve_dir proc new_dir) with
    | Some po, Some pn when po.dentry.d_sb == pn.dentry.d_sb ->
      let si = Locktab.index tab po.dentry.d_id and sj = Locktab.index tab pn.dentry.d_id in
      Dcache.with_read d (fun () ->
          Locktab.with_lock2 tab si sj (fun () ->
              crash_point proc (fun cs -> cs.Kernel.cs_rename);
              if not (dir_valid proc po && dir_valid proc pn) then None
              else begin
                match Dcache.lookup d po.dentry old_name with
                | None -> None
                | child ->
                  let src = { dir = po; name = old_name; child; striped = true } in
                  let dst =
                    { dir = pn; name = new_name; child = Dcache.lookup d pn.dentry new_name;
                      striped = true }
                  in
                  if rename_covers proc src dst then Some (rename_body proc src dst) else None
              end))
      |> after_stripe proc [ old_path; new_path ]
    | _ -> None)
  | _ -> None

let rename proc old_path new_path =
  sys proc Counters.sys_rename;
  match rename_striped proc old_path new_path with
  | Some r -> r
  | None ->
    with_write proc (fun () ->
        let* src = resolve_parent_locked proc old_path in
        let* dst = resolve_parent_locked proc new_path in
        rename_body proc src dst)

let link proc old_path new_path =
  sys proc Counters.sys_link;
  with_write proc (fun () ->
      let* old_ref = resolve_locked ~flags:(lookup_flags ~follow:false ()) proc old_path in
      let* old_inode = positive_inode old_ref.dentry in
      if Inode.is_dir old_inode then Error Errno.EPERM
      else begin
        let* t = resolve_parent_locked proc new_path in
        if not (t.dir.dentry.d_sb == old_ref.dentry.d_sb) then Error Errno.EXDEV
        else begin
          match t.child with
          | Some child when dentry_is_positive child -> Error Errno.EEXIST
          | _ ->
            let* dir_inode = writable_dir proc t.dir in
            let* attr =
              t.dir.dentry.d_sb.sb_fs.Fs.link (Inode.ino dir_inode) t.name (Inode.ino old_inode)
            in
            refresh_dir_attr dir_inode;
            Inode.bump_nlink old_inode 1;
            ignore (instantiate proc t { attr with Attr.nlink = (Inode.attr old_inode).Attr.nlink });
            Ok ()
        end
      end)

let do_symlink ?start proc ~target path =
  with_write proc (fun () ->
      let* t = resolve_parent_locked ?start proc path in
      match t.child with
      | Some child when dentry_is_positive child -> Error Errno.EEXIST
      | _ ->
        let* dir_inode = writable_dir proc t.dir in
        let* attr =
          t.dir.dentry.d_sb.sb_fs.Fs.symlink (Inode.ino dir_inode) t.name ~target
            ~uid:(Cred.uid proc.Proc.cred) ~gid:(Cred.gid proc.Proc.cred)
        in
        refresh_dir_attr dir_inode;
        ignore (instantiate proc t attr);
        Ok ())

let symlink proc ~target path =
  sys proc Counters.sys_symlink;
  do_symlink proc ~target path

let mkstemp ?prng ?(prefix = "tmp") proc dir =
  sys proc Counters.sys_mkstemp;
  let prng =
    match prng with Some p -> p | None -> Dcache_util.Prng.create (String.hash dir)
  in
  let rec attempt tries =
    if tries = 0 then Error Errno.EEXIST
    else begin
      let name = prefix ^ Dcache_util.Prng.string prng ~min_len:6 ~max_len:6 in
      let path = Vfs.Path.join dir name in
      match do_open proc path [ Proc.O_CREAT; Proc.O_EXCL; Proc.O_RDWR ] with
      | Ok fd -> Ok (fd, path)
      | Error Errno.EEXIST -> attempt (tries - 1)
      | Error _ as e -> e
    end
  in
  attempt 100

(* --- attributes and security --- *)

let owner_or_root proc (attr : Attr.t) =
  if Cred.uid proc.Proc.cred = 0 || Cred.uid proc.Proc.cred = attr.Attr.uid then Ok ()
  else Error Errno.EPERM

(* chmod/chown of a directory invalidates every cached descendant's memoized
   prefix check before the change lands (§3.2). *)
let setattr_path proc path ~privileged changes =
  with_write proc (fun () ->
      let* ref_ = resolve_locked proc path in
      let* inode = positive_inode ref_.dentry in
      let* () =
        if privileged then begin
          if Cred.uid proc.Proc.cred = 0 then Ok () else Error Errno.EPERM
        end
        else owner_or_root proc (Inode.attr inode)
      in
      if ref_.mnt.mnt_readonly then Error Errno.EROFS
      else begin
        if Inode.is_dir inode then
          Dcache.invalidate_permissions (dcache proc) ref_.dentry |> ignore;
        Inode.setattr inode changes
      end)

let chmod proc path mode =
  let t0 = sys_clock proc in
  sys proc Counters.sys_chmod;
  let r =
    setattr_path proc path ~privileged:false { Fs.no_setattr with Fs.set_mode = Some mode }
  in
  sys_charge proc Timers.chmod_chown t0;
  r

let chown proc path ~uid ~gid =
  let t0 = sys_clock proc in
  sys proc Counters.sys_chown;
  let r =
    setattr_path proc path ~privileged:true
      { Fs.no_setattr with Fs.set_uid = Some uid; set_gid = Some gid }
  in
  sys_charge proc Timers.chmod_chown t0;
  r

let set_label proc path label =
  sys proc Counters.sys_set_label;
  setattr_path proc path ~privileged:true { Fs.no_setattr with Fs.set_label = Some label }

(* --- process state --- *)

let chdir proc path =
  sys proc Counters.sys_chdir;
  resolve_with proc path ~flags:(lookup_flags ~must_dir:true ()) ~within:(fun ref_ ->
      let* inode = positive_inode ref_.dentry in
      let* () = permission proc inode Access.may_exec in
      Dcache.dget ref_.dentry;
      Ok ref_)
  |> Result.map (fun ref_ ->
         Dcache.dput proc.Proc.cwd.dentry;
         proc.Proc.cwd <- ref_)

let fchdir proc fdnum =
  sys proc Counters.sys_fchdir;
  let* fd = Proc.find_fd proc fdnum in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else begin
    Dcache.dget fd.Proc.fd_ref.dentry;
    Dcache.dput proc.Proc.cwd.dentry;
    proc.Proc.cwd <- fd.Proc.fd_ref;
    Ok ()
  end

let chroot proc path =
  sys proc Counters.sys_chroot;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else
    resolve_with proc path ~flags:(lookup_flags ~must_dir:true ()) ~within:(fun ref_ ->
        let* inode = positive_inode ref_.dentry in
        let* () = permission proc inode Access.may_exec in
        Dcache.dget ref_.dentry;
        Ok ref_)
    |> Result.map (fun ref_ ->
           Dcache.dput proc.Proc.root.dentry;
           proc.Proc.root <- ref_)

(* --- mounts --- *)

let mount_fs ?(readonly = false) ?(nosuid = false) proc fs path =
  sys proc Counters.sys_mount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* at = resolve_locked ~flags:(lookup_flags ~must_dir:true ()) proc path in
        let* sb = Kernel.make_superblock proc.Proc.kernel fs in
        (* Mount changes remove covered entries from the DLHT (§3.2/§4.3). *)
        Dcache.invalidate_structure (dcache proc) at.dentry |> ignore;
        let* _mount =
          Mount.attach proc.Proc.ns ~at ~root:(Dcache.sb_root sb) ~sb ~readonly ~nosuid
        in
        Ok ())
  end

let bind_mount ?(readonly = false) proc ~src ~dst =
  sys proc Counters.sys_mount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* src_ref = resolve_locked ~flags:(lookup_flags ~must_dir:true ()) proc src in
        let* dst_ref = resolve_locked ~flags:(lookup_flags ~must_dir:true ()) proc dst in
        Dcache.invalidate_structure (dcache proc) dst_ref.dentry |> ignore;
        let* _mount =
          Mount.attach proc.Proc.ns ~at:dst_ref ~root:src_ref.dentry
            ~sb:src_ref.dentry.d_sb ~readonly ~nosuid:false
        in
        Ok ())
  end

let umount proc path =
  sys proc Counters.sys_umount;
  if Cred.uid proc.Proc.cred <> 0 then Error Errno.EPERM
  else begin
    with_write proc (fun () ->
        let* ref_ = resolve_locked ~flags:(lookup_flags ~must_dir:true ()) proc path in
        if not (ref_.dentry == ref_.mnt.mnt_root) then Error Errno.EINVAL
        else begin
          Dcache.invalidate_structure (dcache proc) ref_.mnt.mnt_root |> ignore;
          (match ref_.mnt.mnt_mountpoint with
          | Some (_, mountpoint) ->
            Dcache.invalidate_structure (dcache proc) mountpoint |> ignore
          | None -> ());
          Mount.detach proc.Proc.ns ref_.mnt
        end)
  end

let unshare_mount_ns proc =
  sys proc Counters.sys_unshare;
  Dcache.with_write (dcache proc) (fun () ->
      let ns = Mount.clone_namespace proc.Proc.ns in
      proc.Proc.ns <- ns;
      let root = Mount.root ns in
      Dcache.dget root.dentry;
      Dcache.dget root.dentry;
      Dcache.dput proc.Proc.root.dentry;
      Dcache.dput proc.Proc.cwd.dentry;
      proc.Proc.root <- root;
      proc.Proc.cwd <- root;
      Ok ())

(* --- the *at() family: resolution relative to an open directory --- *)

let with_dirfd proc dirfd k =
  let* fd = Proc.find_fd proc dirfd in
  if not (Inode.is_dir fd.Proc.fd_inode) then Error Errno.ENOTDIR
  else k fd.Proc.fd_ref

let mkdirat ?(mode = Mode.default_dir) proc dirfd path =
  sys proc Counters.sys_mkdirat;
  with_dirfd proc dirfd (fun start -> do_mkdir ~start ~mode proc path)

let unlinkat proc dirfd path =
  sys proc Counters.sys_unlinkat;
  with_dirfd proc dirfd (fun start -> do_unlink ~start proc path)

let symlinkat proc ~target dirfd path =
  sys proc Counters.sys_symlinkat;
  with_dirfd proc dirfd (fun start -> do_symlink ~start proc ~target path)

let readlinkat proc dirfd path =
  sys proc Counters.sys_readlinkat;
  with_dirfd proc dirfd (fun start ->
      let* ref_ = resolve ~start ~flags:(lookup_flags ~follow:false ()) proc path in
      let* inode = positive_inode ref_.dentry in
      if File_kind.equal (Inode.kind inode) File_kind.Symlink then Inode.symlink_target inode
      else Error Errno.EINVAL)

let faccessat proc dirfd path mask =
  let t0 = sys_clock proc in
  sys proc Counters.sys_faccessat;
  let r =
    with_dirfd proc dirfd (fun start ->
        resolve_with ~start proc path ~within:(fun ref_ ->
            let* inode = positive_inode ref_.dentry in
            permission proc inode mask))
  in
  sys_charge proc Timers.access_stat t0;
  r

let getcwd proc =
  sys proc Counters.sys_getcwd;
  let root = proc.Proc.root in
  let cwd = proc.Proc.cwd in
  if cwd.dentry.d_parent <> None && not cwd.dentry.d_hashed then
    (* the working directory was removed *)
    Error Errno.ENOENT
  else begin
    let rec build (r : path_ref) acc =
      if r.dentry == root.dentry && r.mnt == root.mnt then Ok acc
      else begin
        match Mount.follow_up r with
        | Some up -> build up acc
        | None -> (
          match r.dentry.d_parent with
          | Some parent -> build { r with dentry = parent } (r.dentry.d_name :: acc)
          | None -> Ok acc (* cwd outside the root (chrooted after chdir) *))
      end
    in
    let* comps = build cwd [] in
    Ok ("/" ^ String.concat "/" comps)
  end

(* Per-mount negative invalidation (§6.3, DragonFly-style): bump the
   superblock's negative generation so every cached negative on it lazily
   reads as a miss.  One integer store — no lock, no cache walk, and in
   particular not the global write lock a subtree invalidation would
   take. *)
let invalidate_negatives proc path =
  sys proc Counters.sys_invalidate_negatives;
  let* ref_ = resolve proc path in
  Dcache.invalidate_negatives (dcache proc) ref_.dentry.d_sb;
  Ok ()

(* Shallow callback invalidation (§3.7) holds the parent and target
   stripes ([~peek]): the target's direct children live under its own-id
   stripe.  Grandchildren live under their own parents' stripes, so a
   deeper subtree takes the global scope, as does a mountpoint. *)
let invalidate_covers proc t =
  match t.child with
  | None -> false
  | Some child -> (
    match child.d_state with
    | Negative _ -> true
    | Partial _ -> false
    | Positive _ ->
      not (has_grandchildren child || Mount.is_mountpoint proc.Proc.ns t.dir.mnt child))

let evict proc ~striped dentry =
  ignore (Dcache.invalidate_structure (dcache proc) dentry);
  Dcache.unhash ~reclaim:true (dcache proc) dentry;
  if striped then Counter.bump (counters proc) Counters.sharded_cb_invalidate;
  Ok ()

let invalidate_path proc path =
  sys proc Counters.sys_invalidate_path;
  match
    stripe_scope ~peek:true proc ~site:(fun cs -> cs.cs_invalidate) path
      ~covers:(invalidate_covers proc) (fun t ->
        match t.child with
        | Some { d_state = Negative e; _ } -> Error e
        | Some child -> evict proc ~striped:true child
        | None -> Error Errno.ENOENT)
  with
  | Some r -> r
  | None ->
    (* The global scope resolves the whole path: eviction also accepts
       "/", "." and mounted roots, which a parent walk rejects or does not
       cross into. *)
    with_write proc (fun () ->
        let* ref_ = resolve_locked ~flags:(lookup_flags ~follow:false ()) proc path in
        evict proc ~striped:false ref_.dentry)

(* --- convenience wrappers --- *)

(* The cached size only bounds a pseudo-file from below: its rendering may
   have grown since the first lookup.  Ask for one byte more than the size,
   and while a read comes back full, ask again from offset 0 for twice as
   much, so the result is one whole rendering.  A regular file's read comes
   back short at once: one backend read. *)
let read_file proc path =
  let* fd = openf proc path [ Proc.O_RDONLY ] in
  let* attr = fstat proc fd in
  let rec whole len =
    let* data = pread proc fd ~off:0 ~len in
    if String.length data < len then Ok data else whole (2 * len)
  in
  let* data = whole (attr.Attr.size + 1) in
  let* () = close proc fd in
  Ok data

let write_file proc path data =
  let* fd = openf proc path [ Proc.O_CREAT; Proc.O_WRONLY; Proc.O_TRUNC ] in
  let* _ = write proc fd data in
  close proc fd

let readdir_path proc path =
  let* fd = openf proc path [ Proc.O_RDONLY; Proc.O_DIRECTORY ] in
  let result =
    match readdir_fill proc fd with
    | n -> Ok (List.init n (scratch_dirent proc.Proc.dirents))
    | exception Readdir_errno e -> Error e
  in
  let* () = close proc fd in
  result

(* mkdir of every prefix of [path] that ends a component. *)
let mkdir_p proc path =
  let rec go pos =
    let sp = Vfs.Path.next ~lexical:false path pos in
    if sp < 0 then Ok ()
    else begin
      match mkdir proc (String.sub path 0 (Vfs.Path.span_stop sp)) with
      | Ok () | Error Errno.EEXIST -> go (Vfs.Path.span_stop sp)
      | Error _ as e -> e
    end
  in
  go 0
