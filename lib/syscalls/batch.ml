(** Vectored submission/completion front-end (§3.9).

    A preallocated SQ/CQ ring pair over a process: callers enqueue up to
    [cap] metadata probes (stat / lstat / access), call {!submit}, and read
    completions back out of the CQ arrays.  Everything on the warm path —
    the per-op closures, the walk context, the result slots — is allocated
    once at {!create}; a warm all-hit submit performs {e zero} minor-heap
    allocation and zero rwlock acquisitions, and shares one seqcount
    validation window, one span mint and one lease-gate consult across the
    whole run (see {!Dcache_core.Fastpath.probe_batch}). *)

open Dcache_types
open Dcache_vfs.Types
module Walk = Dcache_vfs.Walk
module Dcache = Dcache_vfs.Dcache
module Inode = Dcache_vfs.Inode
module Lsm = Dcache_cred.Lsm
module Fastpath = Dcache_core.Fastpath
module Counter = Dcache_util.Stats.Counter
module Counters = Dcache_util.Counters
module Trace = Dcache_util.Trace

(* SQ op codes (int, not a variant: the SQ is a struct-of-arrays and an
   immediate opcode keeps pushes store-only). *)
let op_stat = 0
let op_lstat = 1
let op_access = 2
let op_readdir = 3

type state = {
  proc : Proc.t;
  cap : int;
  (* submission ring: struct of arrays, filled by the push_* calls *)
  sq_op : int array;
  sq_path : string array;
  sq_mask : Access.t array;
  mutable sq_n : int;
  (* cursor: index of the op the fastpath is currently probing; [prepare]
     advances it so the shared [within] closure knows which op it serves *)
  mutable cur : int;
  (* completion ring *)
  cq_ok : bool array;
  cq_err : Errno.t array;
  cq_attr : Attr.t array;
  (* readdir completions land in the process's dirent scratch; each slot
     records its [off, off+len) window.  The append cursor resets at
     submit, so one submission's listings share the scratch (§5.1). *)
  cq_dir_off : int array;
  cq_dir_len : int array;
  mutable dir_cursor : int;
  (* phase-2 scratch for {!Fastpath.probe_batch} *)
  deferred : int array;
  (* cached walk context, revalidated by physical equality each submit *)
  mutable ctx : Walk.ctx;
}

type t = {
  s : state;
  (* the five hooks handed to [probe_batch], allocated once here so a warm
     submit closes over nothing *)
  path_of : int -> string;
  flags_of : int -> Walk.flags;
  prepare : int -> unit;
  within : mount -> dentry -> (unit, Errno.t) result;
  complete : int -> (unit, Errno.t) result -> unit;
}

let ok_unit : (unit, Errno.t) result = Ok ()
let nofollow_flags = { Walk.follow_last = false; must_dir = false; collect = false }

(* Mirror of [Syscalls.stat_attr]: positive → attr, anything
   still cached short of positive → ENOENT.  No promotion — exactly what
   the sequential stat does. *)
let stat_within s mnt dentry =
  ignore (mnt : mount);
  match dentry.d_state with
  | Positive inode ->
    s.cq_attr.(s.cur) <- Inode.attr inode;
    ok_unit
  | Partial _ | Negative _ -> Errno.to_error Errno.ENOENT

(* Mirror of [Syscalls.access]: positive_inode (promoting a partial, as
   the sequential path does) then the LSM permission stack, which the
   sequential path runs just after its lookup.
   The promotion branch allocates, but is unreachable on a warm all-hit
   batch — warm dentries are positive. *)
let access_within s mnt dentry =
  ignore (mnt : mount);
  let check inode =
    let reg = Kernel.registry s.proc.Proc.kernel in
    if Lsm.permission reg s.proc.Proc.cred (Inode.attr inode) s.sq_mask.(s.cur) then begin
      s.cq_attr.(s.cur) <- Inode.attr inode;
      ok_unit
    end
    else Errno.to_error Errno.EACCES
  in
  match dentry.d_state with
  | Positive inode -> check inode
  | Partial _ -> (
    match Dcache.promote dentry with
    | Ok inode -> check inode
    | Error e -> Errno.to_error e)
  | Negative e -> Errno.to_error e

(* Readdir into the process's dirent scratch at the append cursor.  The
   shared probe window validates the {e path}; the listing itself rides
   {!Readdir.fill}'s own discipline — warm DIR_COMPLETE listings are the
   lockless seqcount-validated walk (word-free), cold ones take the
   directory's stripe and promote.  Both are safe from this hook: in
   phase 1 it runs with no lock held, and in phase 2 (under the batch's
   single write lock) [Readdir] detects the held write side and runs its
   locked body inline.  Scratch writes are idempotent, so an op re-probed
   after a batch split just overwrites its own window. *)
let readdir_within s mnt dentry =
  ignore (mnt : mount);
  match dentry.d_state with
  | Positive inode ->
    if not (Inode.is_dir inode) then Errno.to_error Errno.ENOTDIR
    else begin
      let base = s.dir_cursor in
      match Readdir.fill s.proc inode dentry ~base with
      | n ->
        s.cq_dir_off.(s.cur) <- base;
        s.cq_dir_len.(s.cur) <- n - base;
        s.dir_cursor <- n;
        ok_unit
      | exception Readdir.Readdir_errno e -> Errno.to_error e
    end
  | Partial _ | Negative _ -> Errno.to_error Errno.ENOENT

let create ?(cap = 128) proc =
  if cap <= 0 then invalid_arg "Batch.create: cap must be positive";
  let filler_attr =
    match (Kernel.root proc.Proc.kernel).dentry.d_state with
    | Positive inode -> Inode.attr inode
    | Partial _ | Negative _ -> assert false
  in
  let s =
    {
      proc;
      cap;
      sq_op = Array.make cap op_stat;
      sq_path = Array.make cap "";
      sq_mask = Array.make cap Access.may_read;
      sq_n = 0;
      cur = 0;
      cq_ok = Array.make cap false;
      cq_err = Array.make cap Errno.ENOENT;
      cq_attr = Array.make cap filler_attr;
      cq_dir_off = Array.make cap 0;
      cq_dir_len = Array.make cap 0;
      dir_cursor = 0;
      deferred = Array.make cap 0;
      ctx = Proc.walk_ctx proc;
    }
  in
  {
    s;
    path_of = (fun i -> s.sq_path.(i));
    flags_of =
      (fun i -> if s.sq_op.(i) = op_lstat then nofollow_flags else Walk.default_flags);
    prepare = (fun i -> s.cur <- i);
    within =
      (fun mnt dentry ->
        let op = s.sq_op.(s.cur) in
        if op = op_access then access_within s mnt dentry
        else if op = op_readdir then readdir_within s mnt dentry
        else stat_within s mnt dentry);
    complete =
      (fun i r ->
        match r with
        | Ok () -> s.cq_ok.(i) <- true
        | Error e ->
          s.cq_ok.(i) <- false;
          s.cq_err.(i) <- e);
  }

let capacity t = t.s.cap
let length t = t.s.sq_n
let reset t = t.s.sq_n <- 0

let push t op path mask =
  let s = t.s in
  if s.sq_n >= s.cap then -1
  else begin
    let slot = s.sq_n in
    s.sq_op.(slot) <- op;
    s.sq_path.(slot) <- path;
    s.sq_mask.(slot) <- mask;
    s.sq_n <- slot + 1;
    slot
  end

let push_stat t path = push t op_stat path Access.may_read
let push_lstat t path = push t op_lstat path Access.may_read
let push_access t path mask = push t op_access path mask
let push_readdir t path = push t op_readdir path Access.may_read

(* The cached context goes stale when the process changes credentials,
   chroots, chdirs or switches namespace — all rare next to submits, all
   observable by physical equality on the record fields (Proc mutators
   replace, never mutate in place). *)
let ctx_fresh s =
  let c = s.ctx in
  c.Walk.cred == s.proc.Proc.cred
  && c.Walk.root == s.proc.Proc.root
  && c.Walk.cwd == s.proc.Proc.cwd
  && c.Walk.ns == s.proc.Proc.ns

let submit t =
  let s = t.s in
  let n = s.sq_n in
  if n > 0 then begin
    let cs = Kernel.counters s.proc.Proc.kernel in
    Counter.bump cs Counters.batch_submit;
    Counter.add cs Counters.batch_ops n;
    (* One lookup count per op keeps the Table-1 style per-lookup stats
       comparable with the sequential front-end; the per-path byte and
       component tallies are skipped — they would cost a string scan per
       op on the zero-allocation path. *)
    Counter.add cs Counters.path_lookup n;
    (* One span mint for the whole submission (§3.8): every op's stamps
       ride the same request-scoped span. *)
    if Trace.span_enter () <> 0 then Trace.stamp Trace.ev_batch_submit n;
    (* Listings from the previous submission die here: the scratch is one
       append arena per submission. *)
    s.dir_cursor <- 0;
    if not (ctx_fresh s) then s.ctx <- Proc.walk_ctx s.proc;
    Counter.add cs Counters.batch_windows
      (Fastpath.probe_batch
         (Kernel.fastpath s.proc.Proc.kernel)
         s.ctx ~n ~path:t.path_of ~flags:t.flags_of ~prepare:t.prepare ~within:t.within
         ~complete:t.complete ~deferred:s.deferred)
  end

let submitted t i =
  if i < 0 || i >= t.s.sq_n then invalid_arg "Batch: slot out of range"

let ok t i =
  submitted t i;
  t.s.cq_ok.(i)

let errno t i =
  submitted t i;
  t.s.cq_err.(i)

let attr t i =
  submitted t i;
  t.s.cq_attr.(i)

let result t i =
  submitted t i;
  if t.s.cq_ok.(i) then Ok t.s.cq_attr.(i) else Error t.s.cq_err.(i)

let dir_len t i =
  submitted t i;
  t.s.cq_dir_len.(i)

let in_dir t i j =
  submitted t i;
  if j < 0 || j >= t.s.cq_dir_len.(i) then
    invalid_arg "Batch: dirent out of range";
  t.s.cq_dir_off.(i) + j

let dir_name t i j = t.s.proc.Proc.dirents.Proc.ds_names.(in_dir t i j)
let dir_ino t i j = t.s.proc.Proc.dirents.Proc.ds_inos.(in_dir t i j)
let dir_kind t i j = t.s.proc.Proc.dirents.Proc.ds_kinds.(in_dir t i j)
