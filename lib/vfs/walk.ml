open Dcache_types
open Types
module Lsm = Dcache_cred.Lsm
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Trace = Dcache_util.Trace
module Timers = Dcache_util.Timers

type ctx = {
  cred : Dcache_cred.Cred.t;
  root : path_ref;
  cwd : path_ref;
  ns : namespace;
  registry : Lsm.registry;
}

type mode = Rcu | Ref

type flags = { follow_last : bool; must_dir : bool; collect : bool }

let default_flags = { follow_last = true; must_dir = false; collect = false }

type result_ = {
  outcome : (path_ref, Errno.t) result;
  visited : path_ref list;
  absolute : bool;
}

exception Need_refwalk

type parent_result = {
  parent : path_ref;
  last : string;
  child : dentry option;
  trailing_slash : bool;
  p_visited : path_ref list;
  p_absolute : bool;
}

let max_symlink_depth = 40

(* Internal control-flow exception carrying a definitive walk error. *)
exception Walk_error of Errno.t

let unwrap = function Ok x -> x | Error e -> raise (Walk_error e)

let check_exec ctx inode =
  Lsm.permission ctx.registry ctx.cred (Inode.attr inode) Access.may_exec

let may_lookup tm ctx inode =
  let t0 = Timers.start tm.Timers.lookups in
  let allowed = check_exec ctx inode in
  Timers.stop tm Timers.permission t0;
  if not allowed then raise (Walk_error Errno.EACCES)

(* The inode of a positive or [Partial] dentry; promotes Partial dentries
   (readdir-cached children, §5.1), which mutates the cache, hence
   Ref-only. *)
let inode_of mode d =
  match d.d_state with
  | Positive inode -> inode
  | Partial _ ->
    if mode = Rcu then raise Need_refwalk else unwrap (Dcache.promote d)
  | Negative e -> raise (Walk_error e)

(* Require a positive directory to descend into. *)
let dir_inode_of mode d =
  match d.d_state with
  | Positive inode when not (Inode.is_dir inode) -> raise (Walk_error Errno.ENOTDIR)
  | Partial { p_kind; _ } when not (File_kind.equal p_kind File_kind.Directory) ->
    raise (Walk_error Errno.ENOTDIR)
  | Positive _ | Partial _ | Negative _ -> inode_of mode d

(* Dot-dot: climb, exiting mounts at their roots, but never above the
   process root (the chroot barrier). *)
let rec follow_dotdot ctx (cur : path_ref) =
  if cur.dentry == ctx.root.dentry && cur.mnt == ctx.root.mnt then cur
  else begin
    match Mount.follow_up cur with
    | Some up -> follow_dotdot ctx up
    | None -> (
      match cur.dentry.d_parent with
      | Some parent -> { cur with dentry = parent }
      | None -> cur)
  end

(* Close-to-open consistency (§4.3): on a revalidating (stateless network)
   file system a cached hit must still be checked at the server; a stale
   entry is dropped and refilled. *)
let revalidate_hit mode t child =
  match child.d_sb.sb_fs.Dcache_fs.Fs_intf.revalidate with
  | None -> true
  | Some check -> (
    let fresh ino =
      Counter.bump (Dcache.counters t) Counters.netfs_revalidate;
      match check ino with Ok fresh -> fresh | Error _ -> false
    in
    match child.d_state with
    | Negative _ -> true (* stateless clients do not cache negatives *)
    | Positive inode when fresh (Inode.ino inode) -> true
    | Partial { p_ino; _ } when fresh p_ino -> true
    | Positive _ | Partial _ ->
      if mode = Rcu then raise Need_refwalk;
      Counter.bump (Dcache.counters t) Counters.netfs_stale_dentry;
      (* A stale child proves the parent's cached listing diverged from the
         server; its completeness claim cannot survive, or the refill below
         would be answered ENOENT from the cache itself. *)
      Option.iter Dcache.clear_complete child.d_parent;
      Dcache.unhash t child;
      false)

let[@inline] dentry_leased live d =
  match d.d_state with
  | Positive inode -> live (Inode.ino inode)
  | Partial { p_ino; _ } -> live p_ino
  | Negative _ -> false

(* On a leased file system a directory's completeness is only as fresh as
   its lease (§3.7): a walk may have entered the directory without
   revalidating it (a prefix resume starts there).  With the lease dead,
   an Rcu walk hands over to Ref, which drops the claim and asks the fs. *)
let complete_is_live mode dir =
  match dir.d_sb.sb_fs.Dcache_fs.Fs_intf.lease_check with
  | None -> true
  | Some live ->
    if dentry_leased live dir then true
    else if mode = Rcu then raise Need_refwalk
    else begin
      Dcache.clear_complete dir;
      false
    end

(* Whether a cached child answers the lookup.  A negative earned under an
   older per-mount generation is a miss, and a Ref walk drops it so the
   refill can re-earn the verdict (Rcu leaves the cleanup to the next Ref
   walk — treating the hit as a miss is already correct). *)
let hit_usable mode t child =
  if dentry_is_negative child && not (Dcache.negative_current child) then begin
    if mode = Ref then begin
      Counter.bump (Dcache.counters t) Counters.walk_stale_negative;
      Dcache.unhash t child
    end;
    false
  end
  else revalidate_hit mode t child

let find t dir s sp = Dcache.find t dir s ~pos:(Path.span_start sp) ~len:(Path.span_len sp)

(* The dcache probe + miss fill for the component [sp] of [s] in [dir].
   A definitive miss with nothing cacheable raises [Walk_error ENOENT]. *)
let step mode t dir s sp =
  let tm = Dcache.timers t in
  let t0 = Timers.start tm.Timers.lookups in
  (* [dir] itself stands for "no cached child": no dentry is its own child. *)
  let child = match find t dir s sp with child -> child | exception Not_found -> dir in
  Timers.stop tm Timers.table_lookup t0;
  if child != dir && hit_usable mode t child then begin
    if dentry_is_negative child then Counter.bump (Dcache.counters t) Counters.walk_negative_hit;
    child
  end
  else if Dcache.is_complete t dir && complete_is_live mode dir then begin
    (* A complete directory answers misses definitively without consulting
       the file system (§5.1), and is its own negative cache: nothing is
       cached for the absent name. *)
    Counter.bump (Dcache.counters t) Counters.complete_dir_negative;
    Trace.stamp Trace.ev_complete_neg 0;
    raise (Walk_error Errno.ENOENT)
  end
  else begin
    if mode = Rcu then raise Need_refwalk;
    (* Counted in Ref mode only, or the Rcu attempt and its Ref replay
       would attribute the same miss twice. *)
    Counter.bump (Dcache.counters t) Counters.dir_incomplete;
    (* ENOENT here: an fs without negative caching *)
    unwrap (Dcache.fill t dir (Path.name s sp))
  end

(* Symlink alias dentries (§4.2): under an alias parent, mirror the resolved
   component [sp] of [s] as a child whose [d_alias] redirects to the real
   dentry. *)
let get_or_make_alias mode t alias_parent s sp real =
  match find t alias_parent s sp with
  | a ->
    if not (match a.d_alias with Some target -> target == real | None -> false) then begin
      if mode = Rcu then raise Need_refwalk;
      if dentry_is_negative a && not (dentry_is_negative real) then Dcache.neg_forget t a;
      let track = dentry_is_negative real && not (dentry_is_negative a) in
      a.d_alias <- Some real;
      a.d_state <- real.d_state;
      a.d_target_sig <- None;
      if track then Dcache.neg_track t a;
      Dcache.invalidate_structure t a |> ignore
    end;
    Some a
  | exception Not_found ->
    if mode = Rcu then None
    else begin
      match Dcache.add_child t alias_parent (Path.name s sp) real.d_state with
      | Ok a ->
        a.d_alias <- Some real;
        Counter.bump (Dcache.counters t) Counters.symlink_alias_created;
        Some a
      | Error _ -> None
    end

(* One walk.  Components are read in place from the path strings and the
   position travels as separate (mount, dentry) arguments, so stepping
   through a component allocates nothing. *)
type walker = {
  w_mode : mode;
  w_t : Dcache.t;
  w_ctx : ctx;
  w_flags : flags;
  w_lexical : bool;
  w_parent : bool;  (** stop in the directory holding the final name *)
  mutable w_visited : path_ref list;  (** newest first *)
  mutable w_links : int;  (** symlinks followed *)
  mutable w_last : int;  (** parent-style: the final name's span *)
}

let push w mnt dentry = if w.w_flags.collect then w.w_visited <- { mnt; dentry } :: w.w_visited

(* Deep negative dentries (§5.2): after a definitive failure at [parent],
   cache the plain names that follow in [s], from the span [sp] on, as a
   chain of negative children so a repeat lookup of the full path can hit
   on the fastpath. *)
let rec deep_negatives w mnt parent errno s sp =
  if w.w_mode = Ref && (Dcache.config w.w_t).Config.deep_negative && sp >= 0
     && not (Path.is_dot s sp || Path.is_dotdot s sp)
  then begin
    let next = Path.next ~lexical:w.w_lexical s (Path.span_stop sp) in
    match find w.w_t parent s sp with
    | child ->
      if dentry_is_negative child then begin
        push w mnt child;
        deep_negatives w mnt child errno s next
      end
    | exception Not_found -> (
      match Dcache.add_child w.w_t parent (Path.name s sp) (Negative errno) with
      | Ok child ->
        Counter.bump (Dcache.counters w.w_t) Counters.deep_negative_created;
        push w mnt child;
        deep_negatives w mnt child errno s next
      | Error _ -> ())
  end

(* Walk the components of [s] from the span [sp] on, starting in (mnt,
   dentry).  [outer]: [s] is the path itself, not a symlink target; [more]:
   components follow [s] in the strings that hold it.  [alias] is the
   current literal dentry when the walk has passed through a symlink,
   [None] when literal = real.  Returns where [s] ends — parent-style, the
   directory holding the final name, whose span is left in [w_last]. *)
let rec walk w s sp mnt dentry alias ~outer ~more =
  if sp < 0 then begin
    if outer then begin
      if w.w_parent then raise (Walk_error Errno.EINVAL);
      let final_literal = match alias with Some a -> a | None -> dentry in
      match w.w_visited with
      | hd :: _ when hd.dentry == final_literal -> ()
      | _ -> push w mnt final_literal
    end;
    { mnt; dentry }
  end
  else begin
    may_lookup (Dcache.timers w.w_t) w.w_ctx (dir_inode_of w.w_mode dentry);
    let next = Path.next ~lexical:w.w_lexical s (Path.span_stop sp) in
    if Path.is_dot s sp then walk w s next mnt dentry alias ~outer ~more
    else if Path.is_dotdot s sp then begin
      let up = follow_dotdot w.w_ctx { mnt; dentry } in
      walk w s next up.mnt up.dentry None ~outer ~more
    end
    else if w.w_parent && (not more) && next < 0 then begin
      w.w_last <- sp;
      { mnt; dentry }
    end
    else name w s sp next mnt dentry alias ~outer ~more
  end

and name w s sp next mnt dentry alias ~outer ~more =
  let mode = w.w_mode and t = w.w_t in
  (* Per-component accounting: lets the deepmiss benchmark verify that a
     prefix-resumed miss walks only the uncached suffix. *)
  Counter.bump (Dcache.counters t) Counters.walk_components;
  let is_last = (not more) && next < 0 in
  let child = step mode t dentry s sp in
  match child.d_state with
  | Negative errno ->
    (* Record the negative leaf so the caller can publish it in the DLHT;
       chain deeper negatives for the remaining components. *)
    (match alias with
    | None -> push w mnt child
    | Some ap -> (
      match get_or_make_alias mode t ap s sp child with Some l -> push w mnt l | None -> ()));
    deep_negatives w mnt child errno s next;
    raise (Walk_error errno)
  | Partial _ | Positive _ -> (
    let inode = inode_of mode child in
    match Inode.kind inode with
    | File_kind.Symlink when (not is_last) || w.w_flags.follow_last ->
      w.w_links <- w.w_links + 1;
      if w.w_links > max_symlink_depth then raise (Walk_error Errno.ELOOP);
      let target = unwrap (Inode.symlink_target inode) in
      unwrap (Path.check target ~pos:0);
      Counter.bump (Dcache.counters t) Counters.symlink_resolved;
      (* Literal dentry standing for this symlink in the lookup path; the
         target's components are walked with no alias chain and the
         literal chain resumes afterwards. *)
      let symlink_literal =
        match alias with
        | _ when not (Dcache.config t).Config.symlink_aliases -> None
        | Some ap -> get_or_make_alias mode t ap s sp child
        | None -> Some child
      in
      let from =
        if Path.is_absolute target then Mount.traverse_mounts w.w_ctx.root else { mnt; dentry }
      in
      let at =
        walk w target (Path.next ~lexical:w.w_lexical target 0) from.mnt from.dentry None
          ~outer:false ~more:(not is_last)
      in
      walk w s next at.mnt at.dentry symlink_literal ~outer ~more
    | kind ->
      if (not is_last) && not (File_kind.equal kind File_kind.Directory) then begin
        (* Looking *under* a non-directory: ENOTDIR, cacheable as deep
           ENOTDIR dentries (§5.2). *)
        deep_negatives w mnt child Errno.ENOTDIR s next;
        raise (Walk_error Errno.ENOTDIR)
      end;
      let mnt, dentry =
        if not (Mount.is_mountpoint mnt.mnt_ns mnt child) then (mnt, child)
        else begin
          let r = Mount.traverse_mounts { mnt; dentry = child } in
          (r.mnt, r.dentry)
        end
      in
      let alias =
        match alias with Some ap -> get_or_make_alias mode t ap s sp dentry | None -> None
      in
      push w mnt (match alias with Some a -> a | None -> dentry);
      walk w s next mnt dentry alias ~outer ~more)

let walker mode t ctx flags ~stop_at_parent =
  {
    w_mode = mode;
    w_t = t;
    w_ctx = ctx;
    w_flags = flags;
    w_lexical = (Dcache.config t).Config.dotdot = Config.Dotdot_lexical;
    w_parent = stop_at_parent;
    w_visited = [];
    w_links = 0;
    w_last = -1;
  }

(* Run [w] over [path] from byte [pos] and [start_at] (default: the root
   or the cwd).  What it walks is checked whole first, so ENAMETOOLONG
   (ENOENT for "") wins over whatever a component would have answered. *)
let run w ?start_at ?(pos = 0) path =
  Counter.bump (Dcache.counters w.w_t) Counters.walk_slowpath;
  Trace.stamp Trace.ev_slowpath 0;
  let tm = Dcache.timers w.w_t in
  let t0 = Timers.start tm.Timers.lookups in
  unwrap (Path.check path ~pos);
  Timers.stop tm Timers.scan_hash t0;
  let t0 = Timers.start tm.Timers.lookups in
  let start =
    match start_at with
    | Some r -> r
    | None -> if Path.is_absolute path then Mount.traverse_mounts w.w_ctx.root else w.w_ctx.cwd
  in
  Timers.stop tm Timers.init t0;
  walk w path (Path.next ~lexical:w.w_lexical path pos) start.mnt start.dentry None ~outer:true
    ~more:false

(* A walk to the end, then the final must-dir check, whose ENOTDIR
   publishes nothing.  A walk from [start_at] is a prefix-resumed one
   (§3.5): never "absolute", whatever its suffix looks like, so population
   applies the directory-reference rule against [start_at]. *)
let resolve_in_mode mode t ctx ?(flags = default_flags) ?start_at ?pos path =
  let w = walker mode t ctx flags ~stop_at_parent:false in
  let absolute =
    match start_at with
    | Some _ ->
      Counter.bump (Dcache.counters t) Counters.walk_resumed;
      false
    | None -> Path.is_absolute path
  in
  match run w ?start_at ?pos path with
  | cur ->
    let must_dir = flags.must_dir || Path.has_trailing_slash path in
    let tm = Dcache.timers t in
    let t0 = Timers.start tm.Timers.lookups in
    let dir_ok = (not must_dir) || dentry_is_dir cur.dentry in
    Timers.stop tm Timers.finalize t0;
    if dir_ok then { outcome = Ok cur; visited = List.rev w.w_visited; absolute }
    else { outcome = Error Errno.ENOTDIR; visited = []; absolute }
  | exception Walk_error e -> { outcome = Error e; visited = List.rev w.w_visited; absolute }

(* Parent-style termination: the walk stops in the directory holding the
   final name, which is looked up without following symlinks or crossing
   mounts. *)
let resolve_parent mode t ctx ?(collect = false) path =
  let w = walker mode t ctx { default_flags with collect } ~stop_at_parent:true in
  try
    let parent = run w path in
    let child =
      match step mode t parent.dentry path w.w_last with
      | child -> Some child
      | exception Walk_error Errno.ENOENT -> None
    in
    Ok
      {
        parent;
        last = Path.name path w.w_last;
        child;
        trailing_slash = Path.has_trailing_slash path;
        p_visited = List.rev w.w_visited;
        p_absolute = Path.is_absolute path;
      }
  with Walk_error e -> Error e
